package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/distributedne/dne/internal/obs"
	"github.com/distributedne/dne/internal/store"
)

// retryClient wraps http.Client with transient-error retries. A transport
// error (refused or reset while the server restarts, timeout) or a 503 load
// shed from its admission gate is backed off and retried up to maxAttempts
// times; 503s honor the server's Retry-After when it is shorter than the
// capped backoff. Every retry is counted by cause and reported apart from
// query failures.
type retryClient struct {
	c           *http.Client
	maxAttempts int
	base, cap   time.Duration

	connRetries atomic.Int64 // transport-level failures retried
	shedRetries atomic.Int64 // 503 load sheds retried
}

func newRetryClient(maxAttempts int) *retryClient {
	if maxAttempts <= 0 {
		maxAttempts = 8
	}
	return &retryClient{
		c:           &http.Client{Timeout: 2 * time.Minute},
		maxAttempts: maxAttempts,
		base:        50 * time.Millisecond,
		cap:         2 * time.Second,
	}
}

// transientErr reports whether a transport error is worth retrying: the
// shapes a restarting or overloaded server produces.
func transientErr(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var op *net.OpError
	if errors.As(err, &op) {
		return true // refused, reset, EPIPE — all connection-level
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// do sends a JSON request (body may be nil) with retries and returns the
// response bytes. Non-2xx terminal statuses come back as errors carrying
// the server's error body.
func (rc *retryClient) do(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < rc.maxAttempts; attempt++ {
		if attempt > 0 {
			if err := rc.sleep(ctx, attempt, lastErr); err != nil {
				return nil, err
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := rc.c.Do(req)
		if err != nil {
			if transientErr(err) && ctx.Err() == nil {
				rc.connRetries.Add(1)
				lastErr = err
				continue
			}
			return nil, err
		}
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			if transientErr(rerr) && ctx.Err() == nil {
				rc.connRetries.Add(1)
				lastErr = rerr
				continue
			}
			return nil, rerr
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			rc.shedRetries.Add(1)
			lastErr = &shedError{retryAfter: resp.Header.Get("Retry-After")}
			continue
		}
		if resp.StatusCode/100 != 2 {
			return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, firstLine(b))
		}
		return b, nil
	}
	return nil, fmt.Errorf("giving up after %d attempts: %w", rc.maxAttempts, lastErr)
}

type shedError struct{ retryAfter string }

func (e *shedError) Error() string { return "server shed the request (503)" }

// sleep backs off before attempt n: exponential with full jitter, capped,
// but never longer than a 503's Retry-After asked for. The jitter draws
// from the global source: it only spreads retries, it shapes no result.
func (rc *retryClient) sleep(ctx context.Context, attempt int, cause error) error {
	d := rc.base << uint(attempt-1)
	if d > rc.cap || d <= 0 {
		d = rc.cap
	}
	d = time.Duration(rand.Int63n(int64(d))) + rc.base/2
	var shed *shedError
	if errors.As(cause, &shed) && shed.retryAfter != "" {
		if sec, err := strconv.Atoi(shed.retryAfter); err == nil && sec >= 0 {
			if ra := time.Duration(sec) * time.Second; ra < d {
				d = ra
			}
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// client is one dneserve at base URL url.
type client struct {
	rc  *retryClient
	url string
}

// build partitions req's graph on the server into a fresh served graph.
func (c *client) build(ctx context.Context, req BuildRequest) (*GraphInfo, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return c.info(ctx, http.MethodPost, "/api/graphs", body)
}

// info sends a request whose reply is a GraphInfo.
func (c *client) info(ctx context.Context, method, path string, body []byte) (*GraphInfo, error) {
	b, err := c.rc.do(ctx, method, c.url+path, body)
	if err != nil {
		return nil, err
	}
	var info GraphInfo
	if err := json.Unmarshal(b, &info); err != nil {
		return nil, fmt.Errorf("%s reply: %w", path, err)
	}
	return &info, nil
}

// drop deletes graph id.
func (c *client) drop(ctx context.Context, id string) error {
	_, err := c.rc.do(ctx, http.MethodDelete, c.url+"/api/graphs/"+id, nil)
	return err
}

// query is one entry of the seeded workload.
type query struct {
	v    uint32
	khop bool
}

// workload is the seeded query mix every method's graph is driven with.
type workload struct {
	queries   int
	khopRatio float64
	k         int   // k-hop depth
	seed      int64 // query selection
	workers   int
	qps       float64 // 0 = closed loop

	scrape         bool
	scrapeInterval time.Duration
}

// queryList is wl's query list over a graph of numVertices vertices: each
// query draws its vertex, then its kind. Equal seeds give the identical
// list, so every method's graph answers the same queries.
func queryList(wl workload, numVertices uint32) []query {
	rng := rand.New(rand.NewSource(wl.seed))
	qs := make([]query, wl.queries)
	for i := range qs {
		qs[i] = query{v: uint32(rng.Intn(int(numVertices))), khop: rng.Float64() < wl.khopRatio}
	}
	return qs
}

// methodRun is one method's measured serving cost.
type methodRun struct {
	info    *GraphInfo
	drive   driveResult
	metrics store.Metrics
	drift   string // the -scrape line, "" without it
}

// runMethod builds build's graph, drives wl's queries at it, reads its
// serving counters and drops it. A fresh graph's counters start at zero,
// so they cover exactly this run.
func (c *client) runMethod(ctx context.Context, build BuildRequest, wl workload) (*methodRun, error) {
	info, err := c.build(ctx, build)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	if info.NumVertices == 0 {
		return nil, fmt.Errorf("graph %s has no vertices", info.Graph)
	}
	qs := queryList(wl, info.NumVertices)
	var sc *scraper
	if wl.scrape {
		sc = newScraper(ctx, c, wl.scrapeInterval)
	}
	run := &methodRun{info: info, drive: c.drive(ctx, info.Graph, qs, wl)}
	if sc != nil {
		sc.close()
		run.drift = sc.driftLine(info.Method, time.Duration(run.drive.latency.Quantile(0.99)))
	}
	stats, err := c.info(ctx, http.MethodGet, "/api/graphs/"+info.Graph+"/stats", nil)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	run.metrics = stats.Metrics
	if err := c.drop(ctx, info.Graph); err != nil {
		return nil, fmt.Errorf("drop: %w", err)
	}
	return run, nil
}

// driveResult is what the client measured over one query list.
type driveResult struct {
	elapsed  time.Duration
	latency  obs.HistSnapshot // successful queries only
	failed   int64
	firstErr error
}

// drive fires qs at graph id: wl.workers goroutines pull the next index
// from a shared counter, and with wl.qps set query i is due at
// start + i/qps (open loop). Latency is recorded into a log-bucketed
// histogram (≤ 6.25% relative quantile error); a query that fails after
// its retries is counted, not recorded.
func (c *client) drive(ctx context.Context, id string, qs []query, wl workload) driveResult {
	hist := obs.NewHistogram()
	var (
		next     atomic.Int64
		failed   atomic.Int64
		firstErr atomic.Pointer[error]
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < max(wl.workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(qs)) || ctx.Err() != nil {
					return
				}
				if wl.qps > 0 {
					due := start.Add(time.Duration(float64(i) / wl.qps * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							return
						}
					}
				}
				q := qs[i]
				// Marshal cannot fail on these flat structs.
				var (
					url  string
					body []byte
				)
				if q.khop {
					url = c.url + "/api/graphs/" + id + "/khop"
					body, _ = json.Marshal(KHopRequest{Vertex: q.v, K: wl.k})
				} else {
					url = c.url + "/api/graphs/" + id + "/neighbors"
					body, _ = json.Marshal(NeighborsRequest{Vertex: &q.v})
				}
				qStart := time.Now()
				if _, err := c.rc.do(ctx, http.MethodPost, url, body); err != nil {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, &err)
					continue
				}
				hist.Observe(int64(time.Since(qStart)))
			}
		}()
	}
	wg.Wait()
	res := driveResult{elapsed: time.Since(start), latency: hist.Snapshot(), failed: failed.Load()}
	if p := firstErr.Load(); p != nil {
		res.firstErr = *p
	}
	return res
}

// BuildRequest, RMATSpec, GraphInfo, NeighborsRequest and KHopRequest
// mirror cmd/dneserve's request/response contract (kept in sync by hand;
// the server rejects unknown request fields, so drift fails fast).
type BuildRequest struct {
	Method string      `json:"method"`
	Parts  int         `json:"parts"`
	Seed   int64       `json:"seed,omitempty"`
	Edges  [][2]uint32 `json:"edges,omitempty"`
	RMAT   *RMATSpec   `json:"rmat,omitempty"`
}

type RMATSpec struct {
	Scale int   `json:"scale"`
	EF    int   `json:"ef"`
	Seed  int64 `json:"seed"`
}

type GraphInfo struct {
	Graph       string        `json:"graph"`
	Method      string        `json:"method"`
	NumVertices uint32        `json:"numVertices"`
	Quality     Quality       `json:"quality"`
	PartitionMS float64       `json:"partitionMs"`
	BuildMS     float64       `json:"buildMs"`
	Metrics     store.Metrics `json:"metrics"`
}

type Quality struct {
	ReplicationFactor float64 `json:"replicationFactor"`
}

type NeighborsRequest struct {
	Vertex *uint32 `json:"vertex,omitempty"`
}

type KHopRequest struct {
	Vertex uint32 `json:"vertex"`
	K      int    `json:"k"`
}
