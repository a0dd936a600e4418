package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// A resultSet is what -suite writes and -compare reads: for every workload,
// every end-to-end metric over the seeds, and the per-layer metrics of one
// traced run.
type resultSet struct {
	Header    header          `json:"header"`
	Seeds     []int64         `json:"seeds"`
	Seconds   float64         `json:"seconds"`
	Workloads []workloadStats `json:"workloads"`
	Claim     *string         `json:"claim"`
}

type workloadStats struct {
	Name      string             `json:"name"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	EndToEnd  []seedStat         `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"` // traced run on the first seed
	Units     map[string]string  `json:"per_layer_units"`
}

// seedStat is one end-to-end metric over the seeds. Spread is the distance
// between the quartiles as a share of the median, the driver's measure.
type seedStat struct {
	metricDef
	Values []float64 `json:"values"` // by seed
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
}

// runChild runs this program on one workload and seed as the driver does and
// returns the contract line it printed last.
func runChild(cfg config, workload string, seed int64, trace bool) (contractLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return contractLine{}, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", strconv.Itoa(btoi(trace)),
		"-workdir", cfg.workdir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return contractLine{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return contractLine{}, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	return line, nil
}

func runSuite(cfg config, seeds int, out string) error {
	if out == "" || seeds < 2 {
		return fmt.Errorf("-suite needs -out and at least 2 seeds")
	}
	set := resultSet{Header: readHeader(), Seconds: cfg.seconds}
	for i := 0; i < seeds; i++ {
		set.Seeds = append(set.Seeds, cfg.seed+int64(i))
	}
	names := workloadNames()
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	for _, name := range names {
		ws := workloadStats{Name: name, PerLayer: map[string]float64{}}
		values := make(map[string][]float64)
		for _, seed := range set.Seeds {
			line, err := runChild(cfg, name, seed, false)
			if err != nil {
				return err
			}
			ws.Attempted += line.Attempted
			ws.Failed += line.Failed
			for _, d := range endToEnd {
				values[d.Name] = append(values[d.Name], line.Metrics[d.Name].Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: wall_s %.4f\n", name, seed, line.Metrics["wall_s"].Value)
		}
		for _, d := range endToEnd {
			q1, med, q3 := quartiles(values[d.Name])
			ws.EndToEnd = append(ws.EndToEnd, seedStat{
				metricDef: d, Values: values[d.Name], Median: med, Q1: q1, Q3: q3, Spread: (q3 - q1) / med,
			})
		}
		line, err := runChild(cfg, name, set.Seeds[0], true)
		if err != nil {
			return err
		}
		ws.Attempted += line.Attempted
		ws.Failed += line.Failed
		for n, v := range line.Metrics {
			ws.PerLayer[n] = v.Value
		}
		set.Workloads = append(set.Workloads, ws)
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := printSpreads(set, os.Stdout); err != nil {
		return err
	}
	// The set is written either way; a suite whose wrappers cost too much
	// fails, because its per-layer times are not the layers'.
	for _, ws := range set.Workloads {
		if over := ws.PerLayer["bench.trace_overhead"]; over >= maxTraceOverhead {
			return fmt.Errorf("%s: bench.trace_overhead %.3f is not below %.2f", ws.Name, over, maxTraceOverhead)
		}
	}
	return nil
}

func printSpreads(set resultSet, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-12s %-14s %14s %9s %7s  %s\n", "workload", "metric", "median", "spread", "bound", "")
	for _, ws := range set.Workloads {
		for _, s := range ws.EndToEnd {
			note := ""
			if s.Name != "setup_s" && s.Spread > s.Bound/3 {
				note = "spread above a third of the bound"
			}
			fmt.Fprintf(bw, "%-12s %-14s %14.6g %8.2f%% %6.0f%%  %s\n", ws.Name, s.Name, s.Median, 100*s.Spread, 100*s.Bound, note)
		}
		fmt.Fprintf(bw, "%-12s ops_attempted %d ops_failed %d\n", ws.Name, ws.Attempted, ws.Failed)
	}
	return bw.Flush()
}

func readSet(path string) (resultSet, error) {
	var set resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	return set, json.Unmarshal(data, &set)
}

// compareSets prints, for every pair of workload and end-to-end metric, how
// much worse b's median is than a's against the metric's bound:
//
//	ok          not worse by more than the bound
//	regressed   worse by more than the bound
//	unresolved  a spread is wider than the bound, so the medians cannot say
//
// It reports whether any pair regressed or any op failed.
func compareSets(pathA, pathB string, w io.Writer) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "a: %s (%s)\nb: %s (%s)\n", pathA, a.Header.Commit, pathB, b.Header.Commit)
	fmt.Fprintf(bw, "%-12s %-22s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	bad := false
	for _, wa := range a.Workloads {
		wb, ok := findStats(b, wa.Name)
		if !ok {
			return false, fmt.Errorf("%s: workload %s missing", pathB, wa.Name)
		}
		for i, sa := range wa.EndToEnd {
			if i >= len(wb.EndToEnd) || wb.EndToEnd[i].Name != sa.Name {
				return false, fmt.Errorf("%s: %s lists other metrics than %s", pathB, wa.Name, pathA)
			}
			sb := wb.EndToEnd[i]
			worse := (sb.Median - sa.Median) / sa.Median
			if sa.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case sa.Name != "setup_s" && math.Max(sa.Spread, sb.Spread) > sa.Bound:
				verdict = "unresolved"
			case worse > sa.Bound:
				verdict, bad = "regressed", true
			}
			fmt.Fprintf(bw, "%-12s %-22s %14.6g %14.6g %+7.2f%% %5.0f%%  %s\n",
				wa.Name, sa.Name, sa.Median, sb.Median, 100*worse, 100*sa.Bound, verdict)
		}
		if wa.Failed+wb.Failed > 0 {
			bad = true
			fmt.Fprintf(bw, "%-12s ops_failed %d and %d\n", wa.Name, wa.Failed, wb.Failed)
		}
	}
	return bad, nil
}

func findStats(set resultSet, name string) (workloadStats, bool) {
	for _, ws := range set.Workloads {
		if ws.Name == name {
			return ws, true
		}
	}
	return workloadStats{}, false
}
