package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// A tracer records the spans of one rep. Each goroutine that does traced
// work owns one track, so recording needs no lock and the parent of a span
// is simply the span open on the same track when it began. A nil tracer and
// a nil track record nothing: untraced reps run the same code with nil.
type tracer struct {
	workload string
	rep      int
	epoch    time.Time

	mu     sync.Mutex
	tracks []*track
}

func newTracer(workload string, rep int) *tracer {
	return &tracer{workload: workload, rep: rep, epoch: time.Now()}
}

// track adds a track (one row of the Chrome trace: a rank, a client, a
// stream pass) and returns it.
func (t *tracer) track(name string) *track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tk := &track{name: name, id: len(t.tracks), epoch: t.epoch}
	t.tracks = append(t.tracks, tk)
	return tk
}

type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index in the track's spans, -1 for a root
}

type track struct {
	name  string
	id    int
	epoch time.Time
	spans []span
	open  []int
}

// spanRef ends the span it names.
type spanRef struct {
	tk  *track
	idx int
}

func (tk *track) begin(name string) spanRef {
	if tk == nil {
		return spanRef{}
	}
	parent := -1
	if n := len(tk.open); n > 0 {
		parent = tk.open[n-1]
	}
	idx := len(tk.spans)
	tk.spans = append(tk.spans, span{name: name, start: time.Since(tk.epoch), parent: parent})
	tk.open = append(tk.open, idx)
	return spanRef{tk, idx}
}

// end ends the span and returns how long it took, 0 on an untraced rep.
func (r spanRef) end() time.Duration {
	if r.tk == nil {
		return 0
	}
	s := &r.tk.spans[r.idx]
	s.end = time.Since(r.tk.epoch)
	r.tk.open = r.tk.open[:len(r.tk.open)-1]
	return s.end - s.start
}

// spanTotal is the time of every span of one name on one track.
type spanTotal struct {
	total time.Duration // sum of durations
	self  time.Duration // total minus the time covered by child spans
	count int
}

// totals sums the track's spans by name. Children of a span run on the same
// goroutine and so never overlap: self time is duration minus the children's.
func (tk *track) totals() map[string]spanTotal {
	out := make(map[string]spanTotal)
	if tk == nil {
		return out
	}
	children := make([]time.Duration, len(tk.spans))
	for _, s := range tk.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	for i, s := range tk.spans {
		t := out[s.name]
		t.total += s.end - s.start
		t.self += s.end - s.start - children[i]
		t.count++
		out[s.name] = t
	}
	return out
}

// chromeEvent is one record of the Chrome trace-event format, which
// chrome://tracing and ui.perfetto.dev load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// writeChrome writes the rep's spans as one Chrome trace: the rep is the
// process, each track a thread.
func (t *tracer) writeChrome(path string) error {
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: t.rep,
		Args: map[string]any{"name": fmt.Sprintf("%s rep %d", t.workload, t.rep)},
	}}
	for _, tk := range t.tracks {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: t.rep, Tid: tk.id,
			Args: map[string]any{"name": tk.name},
		})
		for i, s := range tk.spans {
			events = append(events, chromeEvent{
				Name: s.name, Ph: "X", Pid: t.rep, Tid: tk.id,
				Ts: micros(s.start), Dur: micros(s.end - s.start),
				Args: map[string]any{"span": i, "parent": s.parent},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
