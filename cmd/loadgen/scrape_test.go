package main

import (
	"math"
	"reflect"
	"testing"
)

const fam = "dne_store_query_duration_seconds"

func TestHistogramQuantile(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name          string
		before, after string
		q             float64
		want          float64
		ok            bool
	}{
		{
			name: "two kind children merged",
			after: `dne_store_query_duration_seconds_bucket{kind="neighbors",le="0.001"} 6
dne_store_query_duration_seconds_bucket{kind="neighbors",le="+Inf"} 6
dne_store_query_duration_seconds_bucket{kind="khop",le="0.002"} 1
dne_store_query_duration_seconds_bucket{kind="khop",le="0.004"} 4
dne_store_query_duration_seconds_bucket{kind="khop",le="+Inf"} 4
`,
			// Merged: 6 ≤ 1 ms, 7 ≤ 2 ms, 10 ≤ 4 ms. Rank 7 of 10 is 2 ms;
			// neither child alone puts it there.
			q: 0.7, want: 0.002, ok: true,
		},
		{
			name: "cumulative buckets turned into increments",
			after: `dne_store_query_duration_seconds_bucket{kind="khop",le="0.001"} 2
dne_store_query_duration_seconds_bucket{kind="khop",le="0.002"} 5
dne_store_query_duration_seconds_bucket{kind="khop",le="0.004"} 10
dne_store_query_duration_seconds_bucket{kind="khop",le="+Inf"} 10
`,
			// Read as increments the counts would sum to 27 and rank 5
			// would land in the first bucket.
			q: 0.5, want: 0.002, ok: true,
		},
		{
			name:  "+Inf only",
			after: "dne_store_query_duration_seconds_bucket{le=\"+Inf\"} 3\n",
			q:     0.5, want: inf, ok: true,
		},
		{
			name: "empty family",
			after: `dne_http_request_duration_seconds_bucket{route="/metrics",le="0.001"} 4
dne_store_query_duration_seconds_count{kind="khop"} 0
`,
			q: 0.99, ok: false,
		},
		{
			name: "no increase since before",
			before: `dne_store_query_duration_seconds_bucket{kind="khop",le="1"} 3
dne_store_query_duration_seconds_bucket{kind="khop",le="+Inf"} 3
`,
			after: `dne_store_query_duration_seconds_bucket{kind="khop",le="1"} 3
dne_store_query_duration_seconds_bucket{kind="khop",le="+Inf"} 3
`,
			q: 0.99, ok: false,
		},
		{
			// 100 slow queries before the run, 100 fast ones during it:
			// the after-scrape alone puts p99 at 1 s, the increase at 1 ms.
			name: "increase keeps earlier traffic out",
			before: `dne_store_query_duration_seconds_bucket{kind="khop",le="1"} 100
dne_store_query_duration_seconds_bucket{kind="khop",le="+Inf"} 100
`,
			after: `dne_store_query_duration_seconds_bucket{kind="khop",le="0.001"} 100
dne_store_query_duration_seconds_bucket{kind="khop",le="1"} 200
dne_store_query_duration_seconds_bucket{kind="khop",le="+Inf"} 200
`,
			q: 0.99, want: 0.001, ok: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := histogramQuantile(tc.before, tc.after, fam, tc.q)
			if ok != tc.ok || (ok && got != tc.want) {
				t.Fatalf("histogramQuantile = %v, %v; want %v, %v", got, ok, tc.want, tc.ok)
			}
		})
	}

	// The pair of the last case, read without its before-scrape.
	last := cases[len(cases)-1]
	if got, _ := histogramQuantile("", last.after, fam, last.q); got != 1 {
		t.Fatalf("after-scrape alone p99 = %v, want 1", got)
	}
}

func TestIncrease(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name          string
		before, after buckets
		want          buckets
	}{
		{
			// before omits the empty 0.002 bucket: its cumulative count
			// there is the one at 0.001.
			name:   "bound missing before",
			before: buckets{"a": {0.001: 2, 0.004: 5, inf: 5}},
			after:  buckets{"a": {0.001: 3, 0.002: 6, 0.004: 9, inf: 9}},
			want:   buckets{"a": {0.001: 1, 0.002: 4, 0.004: 4, inf: 4}},
		},
		{
			name:   "child new since before",
			before: buckets{"a": {1: 2, inf: 2}},
			after:  buckets{"a": {1: 2, inf: 2}, "b": {0.5: 1, inf: 1}},
			want:   buckets{"a": {1: 0, inf: 0}, "b": {0.5: 1, inf: 1}},
		},
		{
			name:   "reset child counts from zero",
			before: buckets{"a": {1: 50, inf: 50}},
			after:  buckets{"a": {1: 3, inf: 3}},
			want:   buckets{"a": {1: 3, inf: 3}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := increase(tc.before, tc.after); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("increase = %v, want %v", got, tc.want)
			}
		})
	}
}
