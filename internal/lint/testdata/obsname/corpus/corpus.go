// Package corpus is the obsname golden corpus. The Registry stub mirrors
// internal/obs's API shape; the analyzer matches registration sites by
// receiver type name, so the stub exercises exactly the production paths.
package corpus

type Counter struct{}
type Histogram struct{}

type Registry struct{}

func (r *Registry) Counter(name, help string, kv ...string) *Counter { return nil }
func (r *Registry) CounterFunc(name, help string, fn func())         {}
func (r *Registry) GaugeFunc(name, help string, fn func())           {}
func (r *Registry) DurationHistogram(name, help string, kv ...string) *Histogram {
	return nil
}

func register(reg *Registry) {
	reg.Counter("dne_requests_total", "ok")
	reg.Counter("dne_requests", "missing total") // want `counter "dne_requests" must end in _total`
	// Regression: the real finding fixed in graph.RegisterStreamMetrics — a
	// counter of seconds registered without the _total suffix.
	reg.CounterFunc("dne_stream_stage_stall_seconds", "stall split", func() {}) // want `counter "dne_stream_stage_stall_seconds" must end in _total`
	reg.CounterFunc("dne_stream_stage_stall_seconds_total", "stall split", func() {})
	reg.GaugeFunc("dne_queue_depth", "ok", func() {})
	reg.GaugeFunc("dne_shed_total", "gauge posing as counter", func() {}) // want `gauge "dne_shed_total" must not end in _total`
	reg.DurationHistogram("dne_apply_duration_seconds", "ok")
	reg.DurationHistogram("dne_query_hops", "no unit") // want `duration histogram "dne_query_hops" must end in _seconds`
	reg.Counter("dneRequestsTotal", "camel case")      // want `not snake_case`
	reg.Counter("_total", "no leading letter")         // want `not snake_case`
	// The //lint:ordered marker is maprange's alone: it suppresses no obsname finding.
	//lint:ordered legacy dashboard depends on this exact name
	reg.Counter("dne_legacy_hits", "not suppressed") // want `counter "dne_legacy_hits" must end in _total`
}
