package lint

import (
	"go/ast"
	"regexp"
	"strconv"
	"strings"
)

// ObsName validates the observability layer at its registration sites:
//
//   - metric names passed to Registry.Counter, CounterFunc, GaugeFunc and
//     DurationHistogram must be snake_case;
//   - counters must end in the Prometheus-conventional _total (a counter
//     of seconds is _seconds_total, of bytes _bytes_total);
//   - duration histograms must end in _seconds;
//   - gauges must NOT end in _total — that suffix promises monotonicity.
//
// Only string-literal names are checked; names built at runtime pass
// through helper functions that are themselves registration sites.
var ObsName = &Analyzer{
	Name: "obsname",
	Doc:  "validates metric names (snake_case, _total/_seconds unit suffixes) at obs registration sites",
	Run:  runObsName,
}

var snakeRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

func runObsName(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pass.NamedTypeName(sel.X) != "Registry" {
				return true
			}
			kind := sel.Sel.Name
			switch kind {
			case "Counter", "CounterFunc", "GaugeFunc", "DurationHistogram":
			default:
				return true
			}
			name, ok := literalString(call.Args)
			if !ok {
				return true
			}
			checkMetricName(pass, call, kind, name)
			return true
		})
	}
	return nil
}

func literalString(args []ast.Expr) (string, bool) {
	if len(args) == 0 {
		return "", false
	}
	lit, ok := args[0].(*ast.BasicLit)
	if !ok || lit.Kind.String() != "STRING" {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

func checkMetricName(pass *Pass, call *ast.CallExpr, kind, name string) {
	if !snakeRE.MatchString(name) {
		pass.Reportf(call.Pos(), "metric name %q is not snake_case ([a-z0-9_], starting with a letter)", name)
		return
	}
	switch {
	case (kind == "Counter" || kind == "CounterFunc") && !strings.HasSuffix(name, "_total"):
		pass.Reportf(call.Pos(), "counter %q must end in _total (unit suffixes come before it: _seconds_total, _bytes_total)", name)
	case kind == "GaugeFunc" && strings.HasSuffix(name, "_total"):
		pass.Reportf(call.Pos(), "gauge %q must not end in _total; that suffix promises a monotonic counter", name)
	case kind == "DurationHistogram" && !strings.HasSuffix(name, "_seconds"):
		pass.Reportf(call.Pos(), "duration histogram %q must end in _seconds", name)
	}
}
