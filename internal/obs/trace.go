package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// The phase-span tracer records named start/end events with attributes into
// a fixed ring buffer: recording never allocates beyond the span itself,
// the buffer never grows, and old spans are overwritten once the ring
// wraps. Dumps render the retained window as plain JSON or as the Chrome
// trace format (chrome://tracing, Perfetto).

// Span is one finished phase: a name, a category, wall-clock bounds, and
// free-form attributes.
type Span struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Start int64             `json:"start_unix_ns"`
	Dur   int64             `json:"dur_ns"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Tracer is a concurrent ring buffer of finished spans. A nil *Tracer is a
// no-op. Construct with NewTracer.
type Tracer struct {
	mu    sync.Mutex
	buf   []Span
	total uint64 // spans ever recorded; total - len(retained) have been dropped
}

// NewTracer returns a tracer retaining the last capacity spans (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{buf: make([]Span, 0, capacity)}
}

// Record appends a finished span, overwriting the oldest once the ring is
// full. Nil-safe.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, s)
	} else {
		t.buf[t.total%uint64(cap(t.buf))] = s
	}
	t.total++
	t.mu.Unlock()
}

// Phase is one (name, elapsed) step of a finished multi-phase run, used by
// RecordPhases to reconstruct spans from duration-only accounting such as a
// partitioner's Result.Stats.
type Phase struct {
	Name    string
	Elapsed time.Duration
}

// RecordPhases records one span per phase, laid out back to back so that
// the last phase ends at end — the span view of a run that only kept
// per-phase durations. Every span carries attrs (shared map; do not mutate
// afterwards).
func (t *Tracer) RecordPhases(cat string, end time.Time, phases []Phase, attrs map[string]string) {
	if t == nil || len(phases) == 0 {
		return
	}
	var total time.Duration
	for _, p := range phases {
		total += p.Elapsed
	}
	start := end.Add(-total).UnixNano()
	for _, p := range phases {
		t.Record(Span{Name: p.Name, Cat: cat, Start: start, Dur: int64(p.Elapsed), Attrs: attrs})
		start += int64(p.Elapsed)
	}
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.buf))
	if len(t.buf) < cap(t.buf) {
		return append(out, t.buf...)
	}
	head := int(t.total % uint64(cap(t.buf))) // oldest retained span
	out = append(out, t.buf[head:]...)
	return append(out, t.buf[:head]...)
}

// Dropped returns how many spans the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := uint64(len(t.buf)); t.total > n {
		return t.total - n
	}
	return 0
}

// WriteJSON dumps the retained spans as a JSON document.
func (t *Tracer) WriteJSON(w io.Writer) error {
	doc := struct {
		Dropped uint64 `json:"dropped"`
		Spans   []Span `json:"spans"`
	}{Dropped: t.Dropped(), Spans: t.Spans()}
	if doc.Spans == nil {
		doc.Spans = []Span{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// chromeEvent is one complete event ("ph":"X") of the Chrome trace format.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace dumps the retained spans in the Chrome trace event
// format, loadable by chrome://tracing and Perfetto. Spans of the same
// category share a track.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	events := make([]chromeEvent, 0, len(spans))
	tids := map[string]int{}
	for _, s := range spans {
		tid, ok := tids[s.Cat]
		if !ok {
			tid = len(tids) + 1
			tids[s.Cat] = tid
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.Dur) / 1e3,
			PID:  1,
			TID:  tid,
			Args: s.Attrs,
		})
	}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: events}
	return json.NewEncoder(w).Encode(doc)
}
