// Partitioner API v2: every edge-partitioning algorithm is invoked through
// Partition(ctx, g, spec) and returns a Result bundling the assignment with
// a quality snapshot and per-run execution statistics. Specs carry the
// partition count plus per-method parameters; parameter names, types and
// defaults are declared by each method's registry descriptor
// (internal/methods), which validates and defaults a Spec before it reaches
// the partitioner.
package partition

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/distributedne/dne/internal/graph"
)

// Spec describes one partitioning run. NumParts is required; Seed drives
// every randomized choice; Params holds per-method tunables keyed by the
// names declared in the method's descriptor (float64, int64/int or bool
// values; JSON numbers arrive as float64 and are coerced).
type Spec struct {
	NumParts int
	Seed     int64
	Params   map[string]any
}

// NewSpec returns a Spec with no method parameters set; methods fall back
// to their declared defaults.
func NewSpec(numParts int, seed int64) Spec {
	return Spec{NumParts: numParts, Seed: seed}
}

// Validate checks the method-independent invariants.
func (s Spec) Validate() error {
	if s.NumParts <= 0 {
		return fmt.Errorf("partition: spec.NumParts must be positive, got %d", s.NumParts)
	}
	return nil
}

// Float reads a float64 parameter, coercing integer values; def is returned
// when the parameter is unset.
func (s Spec) Float(name string, def float64) float64 {
	switch v := s.Params[name].(type) {
	case float64:
		return v
	case float32:
		return float64(v)
	case int:
		return float64(v)
	case int64:
		return float64(v)
	}
	return def
}

// Int reads an integer parameter, accepting exact float64 values (JSON
// numbers); def is returned when the parameter is unset.
func (s Spec) Int(name string, def int) int {
	switch v := s.Params[name].(type) {
	case int:
		return v
	case int64:
		return int(v)
	case float64:
		if v == math.Trunc(v) {
			return int(v)
		}
	}
	return def
}

// Bool reads a boolean parameter; def is returned when the parameter is
// unset.
func (s Spec) Bool(name string, def bool) bool {
	if v, ok := s.Params[name].(bool); ok {
		return v
	}
	return def
}

// PhaseTiming is one named phase of a run with its wall-clock duration.
type PhaseTiming struct {
	Name    string
	Elapsed time.Duration
}

// Stats are the execution metrics of one partitioning run. Counters that a
// method does not track stay zero; method-specific extras (CAS conflicts,
// staleness rates, simulated network time) go in Extra.
type Stats struct {
	// Method is the canonical name of the partitioner that produced the run.
	Method string
	// NumParts echoes the spec.
	NumParts int
	// Wall is the end-to-end time of the Partition call, quality
	// measurement included.
	Wall time.Duration
	// Phases breaks Wall down into named sub-steps, in execution order.
	Phases []PhaseTiming
	// PeakMemBytes is the analytic peak memory across all machines for
	// methods that account it (DNE, ParMETIS, DistLP); 0 when unknown.
	PeakMemBytes int64
	// Iterations is the superstep / sweep count for iterative methods.
	Iterations int
	// CommBytes / CommMessages are inter-machine traffic for distributed
	// methods (result collection excluded).
	CommBytes    int64
	CommMessages int64
	// SweptEdges counts edges assigned in one sweep when the method's loop
	// ended (dne's closing hand-off: small and non-zero on most runs).
	SweptEdges int64
	// Extra carries method-specific numeric metrics keyed by snake_case
	// names (e.g. "wasted_selections", "simulated_network_ms").
	Extra map[string]float64
}

// AddPhase appends a named phase timing.
func (s *Stats) AddPhase(name string, elapsed time.Duration) {
	s.Phases = append(s.Phases, PhaseTiming{Name: name, Elapsed: elapsed})
}

// SetExtra records a method-specific metric.
func (s *Stats) SetExtra(name string, value float64) {
	if s.Extra == nil {
		s.Extra = make(map[string]float64)
	}
	s.Extra[name] = value
}

// MemScore is PeakMemBytes normalised by the edge count (the Fig. 9
// metric); 0 when either is unknown.
func (s *Stats) MemScore(numEdges int64) float64 {
	if numEdges == 0 {
		return 0
	}
	return float64(s.PeakMemBytes) / float64(numEdges)
}

// Result is the v2 return shape: the assignment, its quality snapshot, and
// the run's execution statistics.
type Result struct {
	Partitioning *Partitioning
	Quality      Quality
	Stats        Stats
}

// Partitioner is implemented by every edge-partitioning algorithm in this
// repository (API v2). Implementations must honor ctx: long-running loops
// check for cancellation periodically and return ctx.Err() promptly.
type Partitioner interface {
	// Name returns the short label used in experiment tables.
	Name() string
	// Partition computes a spec.NumParts-way edge partitioning of g.
	Partition(ctx context.Context, g *graph.Graph, spec Spec) (*Result, error)
}

// CoreFunc is the ctx-aware heart of a simple (single-process) partitioner:
// it computes the assignment and leaves quality measurement and timing to
// the Run wrapper.
type CoreFunc func(ctx context.Context, g *graph.Graph, spec Spec) (*Partitioning, error)

// Method adapts a CoreFunc into a Partitioner: Run supplies spec
// validation, phase timing and the quality snapshot. Single-process
// partitioners register themselves as a Method; only methods with richer
// native statistics (DNE, DistLP, ParMETIS) implement the interface
// directly.
type Method struct {
	// Label is the display name used in experiment tables and Stats.Method.
	Label string
	Core  CoreFunc
}

// Name implements Partitioner.
func (m Method) Name() string { return m.Label }

// Partition implements Partitioner.
func (m Method) Partition(ctx context.Context, g *graph.Graph, spec Spec) (*Result, error) {
	return Run(ctx, m.Label, g, spec, m.Core)
}

// CheckEvery is the granularity, in processed edges, at which streaming
// loops poll for context cancellation.
const CheckEvery = 4096

// PhaseMeasure is the reserved phase name for the quality-measurement
// epilogue; harnesses subtract it to recover pure partitioning time.
const PhaseMeasure = "measure"

// Run executes a simple partitioner core under the v2 contract: it
// validates the spec, times the core and the quality measurement as
// separate phases, and assembles the Result.
func Run(ctx context.Context, name string, g *graph.Graph, spec Spec, core CoreFunc) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	p, err := core(ctx, g, spec)
	coreElapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	res := &Result{Partitioning: p}
	res.Stats.Method = name
	res.Stats.NumParts = spec.NumParts
	res.Stats.AddPhase("partition", coreElapsed)
	res.Finish(g, start)
	return res, nil
}

// Finish computes the quality snapshot as a timed "measure" phase and
// closes out Wall relative to start. Adapters that assemble Stats by hand
// (DNE, DistLP, ParMETIS) share this epilogue with Run.
func (r *Result) Finish(g *graph.Graph, start time.Time) {
	mStart := time.Now()
	r.Quality = r.Partitioning.Measure(g)
	r.Stats.AddPhase(PhaseMeasure, time.Since(mStart))
	r.Stats.Wall = time.Since(start)
}

// PartitionTime is Wall minus the measurement epilogue: the time the
// algorithm itself took, comparable to pre-v2 timing tables.
func (s *Stats) PartitionTime() time.Duration {
	t := s.Wall
	for _, ph := range s.Phases {
		if ph.Name == PhaseMeasure {
			t -= ph.Elapsed
		}
	}
	return t
}
