package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func listenOn(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// TestRetryClientSurvivesSheds: a server that sheds the first requests with
// 503 + Retry-After must be retried until it serves, with the sheds counted
// separately and no error surfaced.
func TestRetryClientSurvivesSheds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	rc := newRetryClient(8)
	rc.base = time.Millisecond
	b, err := rc.do(context.Background(), http.MethodPost, srv.URL, []byte("{}"))
	if err != nil {
		t.Fatalf("retries did not absorb the sheds: %v", err)
	}
	if !strings.Contains(string(b), "ok") {
		t.Fatalf("unexpected body %q", b)
	}
	if got := rc.shedRetries.Load(); got != 3 {
		t.Fatalf("shedRetries = %d, want 3", got)
	}
	if rc.connRetries.Load() != 0 {
		t.Fatalf("connRetries = %d, want 0", rc.connRetries.Load())
	}
}

// TestRetryClientSurvivesConnectionErrors: a refused connection (server not
// yet restarted) is a transport-level transient and must be retried, counted
// under connRetries.
func TestRetryClientSurvivesConnectionErrors(t *testing.T) {
	// Reserve an address, then close the listener so the first dials are
	// refused; restart a real server on the same address mid-retry.
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}))
	addr := srv.Listener.Addr().String()
	srv.Listener.Close()

	rc := newRetryClient(20)
	rc.base = 5 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		_, err := rc.do(context.Background(), http.MethodPost, "http://"+addr, []byte("{}"))
		done <- err
	}()

	// Let a few dials fail, then bring the server up on the same port.
	deadline := time.Now().Add(10 * time.Second)
	for rc.connRetries.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no connection retries observed")
		}
		time.Sleep(time.Millisecond)
	}
	srv2 := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}))
	srv2.Listener.Close()
	var err error
	srv2.Listener, err = listenOn(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv2.Start()
	defer srv2.Close()

	if err := <-done; err != nil {
		t.Fatalf("retries did not absorb the refused connections: %v", err)
	}
	if rc.connRetries.Load() == 0 {
		t.Fatal("connRetries not counted")
	}
}

// TestRetryClientGivesUpAndReportsCause: when the budget is exhausted the
// error names the attempt count and the last transient cause.
func TestRetryClientGivesUpAndReportsCause(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	rc := newRetryClient(3)
	rc.base = time.Millisecond
	_, err := rc.do(context.Background(), http.MethodPost, srv.URL, []byte("{}"))
	if err == nil {
		t.Fatal("permanently shedding server did not error")
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("error %q does not name the attempt budget", err)
	}
	if rc.shedRetries.Load() != 3 {
		t.Fatalf("shedRetries = %d, want 3", rc.shedRetries.Load())
	}
}

// TestRetryClientDoesNotRetryTerminalStatus: a 400 is the caller's bug, not
// a transient — exactly one request, immediate error.
func TestRetryClientDoesNotRetryTerminalStatus(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad request"}`, http.StatusBadRequest)
	}))
	defer srv.Close()
	rc := newRetryClient(8)
	rc.base = time.Millisecond
	_, err := rc.do(context.Background(), http.MethodPost, srv.URL, []byte("{}"))
	if err == nil {
		t.Fatal("400 did not surface as an error")
	}
	if calls.Load() != 1 {
		t.Fatalf("terminal status retried: %d calls", calls.Load())
	}
}
