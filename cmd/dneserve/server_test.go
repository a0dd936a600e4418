package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// serve runs newHTTPServer(h, timeout) on a loopback port until the test
// ends and returns its address.
func serve(t *testing.T, h http.Handler, timeout time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", h, timeout)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestServerCutsOffDribbledBody: a client that sends its body a byte at a
// time, far slower than the request deadline allows, is answered with an
// error or cut off once the read bound passes; it never gets the body
// served.
func TestServerCutsOffDribbledBody(t *testing.T) {
	const timeout = 200 * time.Millisecond
	conn, err := net.Dial("tcp", serve(t, newHandler(t, 1000, timeout), timeout))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"method":"random","parts":2,"edges":[[0,1],[1,2]]}`
	fmt.Fprintf(conn, "POST /api/partition HTTP/1.1\r\nHost: dneserve\r\nContent-Length: %d\r\n\r\n", len(body))
	go func() {
		for i := range len(body) {
			if _, err := conn.Write([]byte{body[i]}); err != nil {
				return
			}
			time.Sleep(50 * time.Millisecond) // the body takes 2.6 s, 13 read bounds
		}
	}()
	conn.SetReadDeadline(time.Now().Add(10 * timeout))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	var ne net.Error
	switch {
	case err == nil && resp.StatusCode == http.StatusOK:
		t.Fatal("a dribbled body was read to its end and served")
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatalf("the server still waits on a dribbled body after 10 read bounds")
	}
}

// TestServerClosesSlowHandler: a handler still running past the write
// bound gets its connection closed instead of its late answer delivered.
func TestServerClosesSlowHandler(t *testing.T) {
	const timeout = 50 * time.Millisecond
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(3*timeout + 300*time.Millisecond)
		io.WriteString(w, "late")
	})
	resp, err := http.Get("http://" + serve(t, slow, timeout) + "/")
	if err == nil {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("a handler past the write bound answered %d %q", resp.StatusCode, b)
	}
}

// FuzzGraphRoutes sends arbitrary bodies to every POST route of a server
// that serves one small graph, g. No body panics the server or is answered
// 500, and g's checksum changes only after a 200 ingest, or a 200
// compaction whose rebalance moved edges.
//
// Run locally with:
//
//	go test -run='^$' -fuzz=FuzzGraphRoutes -fuzztime=30s ./cmd/dneserve
func FuzzGraphRoutes(f *testing.F) {
	routes := []string{"/api/partition", "/api/graphs", "/api/graphs/g/ingest",
		"/api/graphs/g/compact", "/api/graphs/g/neighbors", "/api/graphs/g/khop"}
	for route, body := range []string{
		`{"method":"random","parts":2,"edges":[[0,1],[1,2]]}`,
		`{"method":"hdrf","parts":2,"name":"x","rmat":{"scale":4,"ef":2,"seed":1}}`,
		`{"edges":[[0,9],[3,4]],"deletes":[[0,1]]}`,
		`{"rebalanceBudget":8}`,
		`{"vertices":[0,1,2]}`,
		`{"vertex":0,"k":2}`,
	} {
		f.Add(uint8(route), []byte(body))
	}
	f.Add(uint8(2), []byte(`{"parts":3,"edges":[[0,4294967294]]}`))
	f.Add(uint8(3), []byte(``))
	f.Add(uint8(4), []byte(`{"vertex":`))
	f.Add(uint8(5), []byte(`[]`))
	f.Add(uint8(1), []byte(`{"method":"dne","parts":-1,"edges":[[1,1]],"name":"g"}`))

	h, gr := serveDir(f, f.TempDir(), 64, time.Minute, 4)
	buildTestStore(f, h, BuildRequest{Method: "random", Parts: 3, Name: "g", Edges: ringEdges(30)})
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := routes[int(route)%len(routes)]
		e, _, err := gr.lookup("g")
		if err != nil {
			t.Fatal(err)
		}
		before := e.lv.Checksum()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%s answered 500 to %q: %s", path, body, rec.Body)
		}
		if e.lv.Checksum() == before || rec.Code != http.StatusOK {
			if e.lv.Checksum() != before {
				t.Fatalf("%s changed the graph with status %d", path, rec.Code)
			}
			return
		}
		switch {
		case strings.HasSuffix(path, "/ingest"):
		case strings.HasSuffix(path, "/compact") && decode[CompactResponse](t, rec).Moved > 0:
		default:
			t.Fatalf("%s changed the graph", path)
		}
	})
}
