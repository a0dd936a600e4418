package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestAdmissionGateShedsDeterministically drives the gate with a blocking
// downstream handler: one request executing, one queued, and the next
// arrival must be shed immediately with 503 + Retry-After, while ungated
// reads keep answering.
func TestAdmissionGateShedsDeterministically(t *testing.T) {
	gate := newAdmission(admissionLimits{MaxInflight: 1, MaxQueue: 1, MaxWait: 30 * time.Second})
	unblock := make(chan struct{})
	entered := make(chan struct{}, 8)
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if heavyRequest(r) {
			entered <- struct{}{}
			<-unblock
		}
		w.WriteHeader(http.StatusOK)
	})
	h := gate.guard(next)

	do := func(method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
		return rec
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); do("POST", "/api/partition") }() // takes the slot
	<-entered

	wg.Add(1)
	go func() { defer wg.Done(); do("POST", "/api/partition") }() // queues
	waitFor(t, func() bool { return gate.queued.Load() == 1 })

	// Queue full: the third heavy request is shed synchronously.
	rec := do("POST", "/api/graphs/g/ingest")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated gate returned %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if gate.shedFull.Load() != 1 {
		t.Fatalf("shedFull = %d, want 1", gate.shedFull.Load())
	}

	// Reads bypass the gate even while it is saturated.
	if rec := do("GET", "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("ungated read returned %d while gate saturated", rec.Code)
	}
	if rec := do("GET", "/metrics"); rec.Code != http.StatusOK {
		t.Fatalf("metrics returned %d while gate saturated", rec.Code)
	}

	close(unblock)
	wg.Wait()
}

// TestAdmissionGateQueueTimeout: a queued request that cannot get a slot
// within MaxWait turns into a fast 503 instead of waiting forever.
func TestAdmissionGateQueueTimeout(t *testing.T) {
	gate := newAdmission(admissionLimits{MaxInflight: 1, MaxQueue: 4, MaxWait: 20 * time.Millisecond})
	unblock := make(chan struct{})
	entered := make(chan struct{}, 1)
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-unblock
		w.WriteHeader(http.StatusOK)
	})
	h := gate.guard(next)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/partition", strings.NewReader("{}")))
	}()
	<-entered

	start := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/partition", strings.NewReader("{}")))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request returned %d, want 503", rec.Code)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("shed took %v, want ~MaxWait", d)
	}
	if gate.shedTimeout.Load() != 1 {
		t.Fatalf("shedTimeout = %d, want 1", gate.shedTimeout.Load())
	}
	close(unblock)
}

// TestAdmissionOverloadEndToEnd saturates the real handler at 2x capacity:
// the response mix must be only 200s and 503s, every 503 must carry
// Retry-After, and /metrics must stay readable and report the sheds.
func TestAdmissionOverloadEndToEnd(t *testing.T) {
	h, gr, _, errs := newServer(5_000_000, time.Minute, defaultMaxGraphs, t.TempDir(),
		admissionLimits{MaxInflight: 1, MaxQueue: 1, MaxWait: time.Millisecond})
	defer gr.close()
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	const clients = 16
	body := `{"method":"dne","parts":4,"rmat":{"scale":12,"ef":8,"seed":7}}`
	codes := make(chan int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/api/partition", "application/json", strings.NewReader(body))
			if err != nil {
				codes <- -1
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
				codes <- -2
				return
			}
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	var ok, shed int
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
		default:
			t.Fatalf("unexpected outcome %d (only 200/503 allowed)", c)
		}
	}
	if ok == 0 {
		t.Fatal("no request was served under overload")
	}
	if shed == 0 {
		t.Fatal("2x overload shed nothing (queue bounds not enforced)")
	}
	t.Logf("overload mix: %d served, %d shed", ok, shed)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body = string(b)
	if !strings.Contains(body, "dne_http_shed_total") {
		t.Fatal("/metrics does not expose dne_http_shed_total after shedding")
	}
	if !strings.Contains(body, "dne_http_admission_capacity") {
		t.Fatal("/metrics does not expose admission capacity")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
