// Package obs is the repository's zero-dependency observability core:
// atomic counters, scrape-time gauges, log-bucketed latency histograms
// (sharded per-CPU), a registry of labeled metric families with Prometheus
// text-format exposition, and a ring-buffered phase-span tracer.
//
// Instrumentation is strictly write-only observation — nothing in this
// package feeds back into algorithm behavior — and is built to be near-free
// on hot paths: every handle (*Counter, *Histogram) is nil-safe, so an
// uninstrumented subsystem passes nil handles and each record site costs one
// predictable branch.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. Nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (negative deltas are ignored — counters
// only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// metricType tags a family for the exposition TYPE line.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// family is one named metric family: a type, a help string, and labeled
// children (or a collect callback for scrape-time families).
type family struct {
	name string
	help string
	typ  metricType

	mu       sync.Mutex
	children map[string]any // label-set key -> *Counter | *Histogram
	keys     []string       // sorted label-set keys, for deterministic output

	// collect, when non-nil, produces the family's samples at scrape time
	// (GaugeFunc families have no children).
	collect func(emit func(v float64, kv ...string))
}

// Registry holds metric families and renders them in Prometheus text
// format. A nil *Registry is the no-op registry: every factory method
// returns a nil handle, so instrumented code runs with zero bookkeeping —
// the baseline arm of the overhead experiment.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

// labelKey renders alternating ("k","v",...) pairs into the canonical
// {k="v",...} selector, pairs sorted by key. Odd trailing names pair with
// "". Values are escaped per the exposition format.
func labelKey(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		p := pair{k: kv[i]}
		if i+1 < len(kv) {
			p.v = kv[i+1]
		}
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// fam returns (creating if needed) the named family, panicking on a type
// conflict — two call sites disagreeing on a family's type is a programming
// error worth failing loudly on.
func (r *Registry) fam(name, help string, typ metricType) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, children: map[string]any{}}
		r.fams[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: family %s registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

// child returns (creating via mk) the family child for the label pairs.
func (f *family) child(kv []string, mk func() any) any {
	key := labelKey(kv)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = mk()
		f.children[key] = c
		f.keys = append(f.keys, key)
		sort.Strings(f.keys)
	}
	return c
}

// Counter returns the counter of family name with the given alternating
// label pairs, creating family and child as needed. Nil registry → nil
// (no-op) counter.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	f := r.fam(name, help, typeCounter)
	return f.child(kv, func() any { return &Counter{} }).(*Counter)
}

// DurationHistogram returns the histogram of family name with the given
// label pairs, for nanosecond recordings exported as seconds (the
// Prometheus duration convention): record with Observe(int64(elapsed)),
// scrape sees seconds. Nil registry → nil histogram.
func (r *Registry) DurationHistogram(name, help string, kv ...string) *Histogram {
	return r.histogram(name, help, 1e-9, kv)
}

// histogram registers a histogram exported in the recorded unit times
// scale.
func (r *Registry) histogram(name, help string, scale float64, kv []string) *Histogram {
	if r == nil {
		return nil
	}
	f := r.fam(name, help, typeHistogram)
	return f.child(kv, func() any { return newHistogram(scale) }).(*Histogram)
}

// GaugeFunc registers a family whose samples are produced at scrape time:
// fn is called once per exposition and emits (value, label pairs...) for
// each sample. Registering the same name again replaces the callback. Nil
// registry → no-op.
func (r *Registry) GaugeFunc(name, help string, fn func(emit func(v float64, kv ...string))) {
	if r == nil {
		return
	}
	f := r.fam(name, help, typeGauge)
	f.mu.Lock()
	f.collect = fn
	f.mu.Unlock()
}

// CounterFunc is GaugeFunc for counter-typed families: the subsystem
// already keeps a cumulative total and the scrape just reads it.
func (r *Registry) CounterFunc(name, help string, fn func(emit func(v float64, kv ...string))) {
	if r == nil {
		return
	}
	f := r.fam(name, help, typeCounter)
	f.mu.Lock()
	f.collect = fn
	f.mu.Unlock()
}

// WritePrometheus renders every family in Prometheus text exposition
// format, families sorted by name, children sorted by label set, histogram
// buckets emitted cumulatively (non-empty buckets plus +Inf).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.fams[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	collect := f.collect
	keys := append([]string(nil), f.keys...)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	if collect != nil {
		// Scrape-time family: gather, then emit in deterministic order.
		type sample struct {
			key string
			v   float64
		}
		var samples []sample
		collect(func(v float64, kv ...string) {
			samples = append(samples, sample{key: labelKey(kv), v: v})
		})
		sort.Slice(samples, func(i, j int) bool { return samples[i].key < samples[j].key })
		for _, s := range samples {
			fmt.Fprintf(b, "%s%s %s\n", f.name, s.key, formatValue(s.v))
		}
		return
	}
	for i, key := range keys {
		switch c := children[i].(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, key, c.Value())
		case *Histogram:
			writeHistogram(b, f.name, key, c)
		}
	}
}

// writeHistogram emits one histogram child: cumulative _bucket lines for
// every non-empty bucket plus +Inf, then _sum and _count. le bounds are the
// buckets' inclusive upper bounds in the exported unit.
func writeHistogram(b *strings.Builder, name, key string, h *Histogram) {
	s := h.Snapshot()
	var cum uint64
	for i := range s.Counts {
		if s.Counts[i] == 0 {
			continue
		}
		cum += s.Counts[i]
		le := float64(bucketUpper(i)) * h.scale
		writeBucket(b, name, key, formatValue(le), cum)
	}
	writeBucket(b, name, key, "+Inf", s.Count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, key, formatValue(float64(s.Sum)*h.scale))
	fmt.Fprintf(b, "%s_count%s %d\n", name, key, s.Count)
}

func writeBucket(b *strings.Builder, name, key, le string, cum uint64) {
	sep := key
	if sep == "" {
		sep = fmt.Sprintf("{le=%q}", le)
	} else {
		sep = sep[:len(sep)-1] + fmt.Sprintf(",le=%q}", le)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, sep, cum)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
