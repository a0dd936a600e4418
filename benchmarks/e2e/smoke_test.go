package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The program's tables and BENCHMARK.json must not drift apart.
func TestTablesMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %+v\n program %+v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file    %+v\n program %+v", b.PerLayer, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if def, ok := findWorkload(w.Name); !ok || def.why != w.Why {
			t.Errorf("workload %s: why differs or workload unknown", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v in the file, %v in the program", names, workloadNames())
	}
	if !slices.Equal(b.Paths, []string{"benchmarks/e2e"}) {
		t.Errorf("paths = %v", b.Paths)
	}
}

// Every workload runs at RMAT scale 10 with a few timed reps, traced and not,
// checks its outputs, and emits exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	b := readBenchmarkFile(t)
	pinRuntime()
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: def.name, seed: 1, trace: trace, workdir: t.TempDir()}
			def.scale, def.minInputs = 10, 3
			if err := os.Mkdir(cfg.workdir+"/tmp", 0o755); err != nil {
				t.Fatal(err)
			}
			res, err := runWorkload(context.Background(), cfg, def, io.Discard)
			if err != nil {
				t.Fatalf("%s trace %v: %v", def.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %v: %d ops, %d failed: %v", def.name, trace, res.Attempted, res.Failed, res.Errors)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			line := res.contract()
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics, BENCHMARK.json names %d", def.name, trace, len(line.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := line.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s trace %v: metric %s missing or in unit %q", def.name, trace, d.Name, v.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", def.name, d.Name, v.Value)
				}
			}
			if trace {
				if _, err := os.Stat(cfg.workdir + "/out/" + def.name + ".trace.json"); err != nil {
					t.Errorf("%s: no Chrome trace: %v", def.name, err)
				}
			}
		}
	}
}
