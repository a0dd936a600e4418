package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTracerRingWraparound fills the ring past capacity and checks the
// retained window is exactly the newest spans, oldest first, with the drop
// count accounting for the rest.
func TestTracerRingWraparound(t *testing.T) {
	const capacity = 8
	tr := NewTracer(capacity)
	for i := 0; i < 20; i++ {
		tr.Record(Span{Name: fmt.Sprintf("s%02d", i), Start: int64(i)})
	}
	spans := tr.Spans()
	if len(spans) != capacity {
		t.Fatalf("retained %d spans, want %d", len(spans), capacity)
	}
	for i, s := range spans {
		want := fmt.Sprintf("s%02d", 20-capacity+i)
		if s.Name != want {
			t.Fatalf("span %d = %s, want %s (oldest-first window)", i, s.Name, want)
		}
	}
	if d := tr.Dropped(); d != 20-capacity {
		t.Fatalf("dropped = %d, want %d", d, 20-capacity)
	}
}

func TestTracerUnderCapacity(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Span{Name: "only"})
	if spans := tr.Spans(); len(spans) != 1 || spans[0].Name != "only" {
		t.Fatalf("spans = %v", spans)
	}
	if tr.Dropped() != 0 {
		t.Fatal("nothing dropped yet")
	}
}

// TestRecordPhases reconstructs spans from duration-only phases: they must
// tile back to back and end at the given end time.
func TestRecordPhases(t *testing.T) {
	tr := NewTracer(8)
	end := time.Now()
	tr.RecordPhases("partition", end, []Phase{
		{Name: "expand", Elapsed: 30 * time.Millisecond},
		{Name: "allocate", Elapsed: 10 * time.Millisecond},
	}, map[string]string{"method": "dne"})
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Name != "expand" || spans[1].Name != "allocate" {
		t.Fatalf("order: %s, %s", spans[0].Name, spans[1].Name)
	}
	if got := spans[0].Start + spans[0].Dur; got != spans[1].Start {
		t.Fatalf("phases must tile: expand ends %d, allocate starts %d", got, spans[1].Start)
	}
	if got := spans[1].Start + spans[1].Dur; got != end.UnixNano() {
		t.Fatalf("last phase must end at end: %d != %d", got, end.UnixNano())
	}
	if spans[0].Attrs["method"] != "dne" {
		t.Fatalf("attrs lost: %+v", spans[0].Attrs)
	}
}

func TestTracerDumpFormats(t *testing.T) {
	tr := NewTracer(4)
	tr.Record(Span{Name: "a", Cat: "c1", Start: 1000, Dur: 500})
	tr.Record(Span{Name: "b", Cat: "c2", Start: 2000, Dur: 100})

	var jb strings.Builder
	if err := tr.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Dropped uint64 `json:"dropped"`
		Spans   []Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(jb.String()), &doc); err != nil {
		t.Fatalf("JSON dump does not parse: %v", err)
	}
	if len(doc.Spans) != 2 || doc.Spans[0].Name != "a" {
		t.Fatalf("JSON dump = %+v", doc)
	}

	var cb strings.Builder
	if err := tr.WriteChromeTrace(&cb); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(cb.String()), &chrome); err != nil {
		t.Fatalf("Chrome dump does not parse: %v", err)
	}
	if len(chrome.TraceEvents) != 2 {
		t.Fatalf("chrome events = %+v", chrome)
	}
	ev := chrome.TraceEvents[0]
	if ev.Ph != "X" || ev.TS != 1.0 || ev.Dur != 0.5 {
		t.Fatalf("chrome event = %+v (ts/dur must be microseconds)", ev)
	}
	if chrome.TraceEvents[0].TID == chrome.TraceEvents[1].TID {
		t.Fatal("different categories must land on different tracks")
	}
}

// TestTracerConcurrent hammers Record/Spans under -race.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record(Span{Name: "s", Cat: "cat"})
				if i%100 == 0 {
					_ = tr.Spans()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Dropped() + uint64(len(tr.Spans())); got != 8*500 {
		t.Fatalf("dropped+retained = %d, want %d", got, 8*500)
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Record(Span{Name: "x"})
	tr.RecordPhases("c", time.Now(), []Phase{{Name: "p"}}, nil)
	if tr.Spans() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer must be inert")
	}
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
}
