// Partitioner API v2: every edge-partitioning algorithm is invoked through
// Partition(ctx, g, spec) and returns a Result bundling the assignment with
// a quality snapshot and per-run execution statistics. Specs carry the
// partition count plus per-method parameters. A parameter's name, type,
// bounds and default are declared once, in the method's registry descriptor
// (internal/methods), which validates a Spec and fills every declared
// parameter before it reaches the partitioner; the partitioners read the
// resolved values and never substitute a default of their own.
package partition

import (
	"context"
	"fmt"
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

// NewSpec returns a Spec with no method parameters set; resolving it
// against a descriptor sets every declared parameter to its default.
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

// Float reads a float parameter of a spec resolved by the method registry
// (methods.ResolveSpec), which sets every declared parameter to its
// declared type. It panics when the parameter is unset or of another type:
// a spec that did not pass through the registry is a programmer error, and
// no default is written outside the method's descriptor.
func (s Spec) Float(name string) float64 { return param[float64](s, name) }

// Int reads an int parameter of a resolved spec; see Float.
func (s Spec) Int(name string) int { return param[int](s, name) }

// Bool reads a bool parameter of a resolved spec; see Float.
func (s Spec) Bool(name string) bool { return param[bool](s, name) }

func param[T any](s Spec, name string) T {
	v, ok := s.Params[name].(T)
	if !ok {
		panic(fmt.Sprintf("partition: param %q is %T, want %T: resolve the spec against the method's descriptor first", name, s.Params[name], v))
	}
	return v
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
	// Method is the canonical registry name of the partitioner that
	// produced the run ("hdrf", "dne"), never its display label.
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

// CoreFunc is the ctx-aware heart of a graph partitioner: it computes the
// assignment and adds whatever native statistics the method tracks (peak
// memory, iterations, traffic, extras) to st; Method.Partition supplies
// validation, timing and the quality snapshot.
type CoreFunc func(ctx context.Context, g *graph.Graph, spec Spec, st *Stats) (*Partitioning, error)

// Method adapts a CoreFunc into a Partitioner. Every registered method that
// needs the materialized graph is a Method; the ones that can consume an
// edge stream are a StreamMethod.
type Method struct {
	// ID is the canonical registry name, recorded in Stats.Method.
	ID string
	// Label is the display name used in experiment tables.
	Label string
	Core  CoreFunc
}

// Name implements Partitioner.
func (m Method) Name() string { return m.Label }

// CheckEvery is the granularity, in processed edges, at which streaming
// loops poll for context cancellation.
const CheckEvery = 4096

// PhaseMeasure is the reserved phase name for the quality-measurement
// epilogue; harnesses subtract it to recover pure partitioning time.
const PhaseMeasure = "measure"

// Partition implements Partitioner: it validates the spec, times the core
// and the quality measurement as separate phases, and assembles the Result.
func (m Method) Partition(ctx context.Context, g *graph.Graph, spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{}
	res.Stats.Method = m.ID
	res.Stats.NumParts = spec.NumParts
	start := time.Now()
	p, err := m.Core(ctx, g, spec, &res.Stats)
	if err != nil {
		return nil, err
	}
	res.Partitioning = p
	res.Stats.AddPhase("partition", time.Since(start))
	mStart := time.Now()
	res.Quality = p.Measure(g)
	res.Stats.AddPhase(PhaseMeasure, time.Since(mStart))
	res.Stats.Wall = time.Since(start)
	return res, nil
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
