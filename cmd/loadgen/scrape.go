package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// storeLatency is the server's store query-latency histogram family.
const storeLatency = "dne_store_query_duration_seconds"

// scraper polls the server's Prometheus text exposition (GET /metrics)
// while a workload runs — the bytes a Prometheus server would scrape — and
// recovers the server-side query-latency quantile from the histogram
// buckets. The family is labelled by query kind, not by store, so the
// quantile is read off the bucket increase between a scrape taken just
// before the run and the final one, the delta
// histogram_quantile(increase(...)) uses: earlier traffic on the server
// stays out of it. Comparing that against the client-side quantile shows
// how far a dashboard built on /metrics drifts from the latency clients
// saw, HTTP round trip included.
type scraper struct {
	ctx      context.Context
	c        *client
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}

	// Written by the poll loop only; read after close.
	scrapes      int
	before, last string
}

// newScraper takes the "before" scrape, then polls every interval until
// close.
func newScraper(ctx context.Context, c *client, interval time.Duration) *scraper {
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	s := &scraper{ctx: ctx, c: c, interval: interval,
		stop: make(chan struct{}), done: make(chan struct{})}
	s.scrape()
	s.before = s.last
	go s.run()
	return s
}

func (s *scraper) run() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.scrape()
		case <-s.stop:
			return
		}
	}
}

// scrape fetches the exposition; a failed scrape keeps the previous one,
// as a Prometheus server would.
func (s *scraper) scrape() {
	b, err := s.c.rc.do(s.ctx, http.MethodGet, s.c.url+"/metrics", nil)
	if err != nil {
		return
	}
	s.scrapes++
	s.last = string(b)
}

// close stops the poll loop and takes one final scrape so the increase
// covers the complete run.
func (s *scraper) close() {
	close(s.stop)
	<-s.done
	s.scrape()
}

// driftLine renders the server-vs-client comparison for one method.
func (s *scraper) driftLine(method string, clientP99 time.Duration) string {
	sec, ok := histogramQuantile(s.before, s.last, storeLatency, 0.99)
	if !ok || math.IsInf(sec, 1) {
		return fmt.Sprintf("scrape: %-8s no server-side samples (%d scrapes)", method, s.scrapes)
	}
	serverP99 := time.Duration(sec * float64(time.Second))
	drift := 0.0
	if clientP99 > 0 {
		drift = (float64(serverP99) - float64(clientP99)) / float64(clientP99) * 100
	}
	return fmt.Sprintf("scrape: %-8s server p99 %s ms, client p99 %s ms, drift %+.1f%% (%d scrapes)",
		method, ms(serverP99), ms(clientP99), drift, s.scrapes)
}

// histogramQuantile computes quantile q of one histogram family over the
// samples recorded between two expositions (before may be empty: then all
// of after counts), merging all children. It returns the le upper bound, in
// the exported unit, of the bucket holding the quantile rank; false when
// the family gained no samples.
func histogramQuantile(before, after, family string, q float64) (float64, bool) {
	return increase(parseBuckets(before, family), parseBuckets(after, family)).quantile(q)
}

// buckets is one histogram family read from an exposition: for each child
// (its label set without le), the cumulative count at every exported le
// bound, +Inf included.
type buckets map[string]map[float64]uint64

func parseBuckets(text, family string) buckets {
	prefix := family + "_bucket{"
	out := buckets{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		sel, count, ok := strings.Cut(line[len(prefix)-1:], " ")
		if !ok {
			continue
		}
		le, child, ok := cutLabel(sel, "le")
		if !ok {
			continue
		}
		bound, err := strconv.ParseFloat(le, 64) // "+Inf" parses too
		if err != nil {
			continue
		}
		n, err := strconv.ParseUint(count, 10, 64)
		if err != nil {
			continue
		}
		if out[child] == nil {
			out[child] = map[float64]uint64{}
		}
		out[child][bound] = n
	}
	return out
}

// cumAt is one child's cumulative count at bound le. The writer omits empty
// buckets, so that is the count at the largest exported bound ≤ le.
func cumAt(child map[float64]uint64, le float64) uint64 {
	var n uint64
	for bound, c := range child {
		if bound <= le && c > n {
			n = c
		}
	}
	return n
}

// increase is after − before per child and bound. A child whose total
// went down was reset (a restarted server) and counts from zero.
func increase(before, after buckets) buckets {
	inf := math.Inf(1)
	out := make(buckets, len(after))
	for name, a := range after {
		b := before[name]
		if cumAt(b, inf) > cumAt(a, inf) {
			b = nil
		}
		d := make(map[float64]uint64, len(a))
		for le, n := range a {
			d[le] = n - min(cumAt(b, le), n)
		}
		out[name] = d
	}
	return out
}

// quantile is the le bound of the first bucket whose count, merged over
// every child, reaches rank ⌈q·total⌉; false when there are no samples.
func (b buckets) quantile(q float64) (float64, bool) {
	inf := math.Inf(1)
	var total uint64
	var les []float64
	for _, child := range b {
		total += cumAt(child, inf)
		for le := range child {
			les = append(les, le)
		}
	}
	if total == 0 {
		return 0, false
	}
	sort.Float64s(les)
	rank := max(uint64(math.Ceil(q*float64(total))), 1)
	for _, le := range les {
		var cum uint64
		for _, child := range b {
			cum += cumAt(child, le)
		}
		if cum >= rank {
			return le, true
		}
	}
	return inf, true
}

// cutLabel removes `name="value"` from a {..} selector, returning the value
// and the selector without that pair (child identity for merging).
func cutLabel(sel, name string) (value, rest string, ok bool) {
	i := strings.Index(sel, name+`="`)
	if i < 0 {
		return "", "", false
	}
	start := i + len(name) + 2
	end := strings.Index(sel[start:], `"`)
	if end < 0 {
		return "", "", false
	}
	value = sel[start : start+end]
	rest = sel[:i] + sel[start+end+1:]
	return value, rest, true
}
