// Command dnelint is the repository's multichecker: it runs the
// internal/lint analyzer suite (maprange, cappedalloc, obsname) over package
// patterns and exits non-zero on any finding. It runs in CI next to go vet.
//
// Usage:
//
//	go run ./cmd/dnelint ./...
//	go run ./cmd/dnelint ./internal/graph
//
// The one suppression is maprange's: a //lint:ordered <why> comment on the
// flagged loop's line or the line above it.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/distributedne/dne/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dnelint [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	dirs, err := loader.ExpandPatterns(cwd, patterns)
	if err != nil {
		fatal(err)
	}

	findings := 0
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fatal(err)
		}
		diags, err := lint.RunAnalyzers(pkg, lint.All())
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			fmt.Printf("%s: %s: %s\n", pos, d.Analyzer, d.Message)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "dnelint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dnelint:", err)
	os.Exit(2)
}
