package lppart

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/gen"
)

func TestDistLPValidAcrossPartCounts(t *testing.T) {
	g := gen.RMAT(10, 8, 3)
	for _, p := range []int{2, 5, 16} {
		d := &DistLP{Iterations: 20, Capacity: 1.05, Seed: 1}
		pt, err := d.PartitionCtx(context.Background(), g, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := pt.Validate(g); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if d.Last == nil || d.Last.MemBytes <= 0 || d.Last.Supersteps <= 0 {
			t.Fatalf("P=%d: stats missing: %+v", p, d.Last)
		}
		if p > 1 && d.Last.CommBytes <= 0 {
			t.Fatalf("P=%d: no communication accounted", p)
		}
	}
}

func TestDistLPBeatsRandomOnRoads(t *testing.T) {
	// Same quality expectation as the sequential LP baselines: label
	// propagation finds near-planar structure.
	g := gen.Road(70, 70, 4)
	d := &DistLP{Iterations: 20, Capacity: 1.05, Seed: 1}
	dpt, err := d.PartitionCtx(context.Background(), g, 16)
	if err != nil {
		t.Fatal(err)
	}
	dr := dpt.Measure(g).ReplicationFactor
	rr := randomRF(t, g, 16)
	if dr >= rr {
		t.Errorf("DistLP RF %.3f not below Random %.3f", dr, rr)
	}
}

func TestDistLPQualityTracksSequentialSpinner(t *testing.T) {
	// The distributed run uses the same objective as the sequential
	// Spinner; quality must land in the same class (within 40%).
	g := gen.RMAT(11, 8, 5)
	const p = 8
	d := &DistLP{Iterations: 20, Capacity: 1.05, Seed: 2}
	dpt, err := d.PartitionCtx(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	spt, err := Spinner{Iterations: 20, Capacity: 1.05, Seed: 2}.PartitionCtx(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	dr := dpt.Measure(g).ReplicationFactor
	sr := spt.Measure(g).ReplicationFactor
	if dr > sr*1.4 {
		t.Errorf("DistLP RF %.3f more than 40%% above sequential Spinner %.3f", dr, sr)
	}
}

func TestDistLPMemoryModelsEdgeReplication(t *testing.T) {
	// The distributed vertex-partitioned layout stores each edge on both
	// endpoint machines: the footprint must exceed 2×4 bytes per edge from
	// adjacency targets alone.
	g := gen.RMAT(11, 16, 7)
	d := &DistLP{Iterations: 20, Capacity: 1.05, Seed: 3}
	if _, err := d.PartitionCtx(context.Background(), g, 16); err != nil {
		t.Fatal(err)
	}
	if d.Last.MemBytes < 8*g.NumEdges() {
		t.Errorf("distributed footprint %d below the 2-copies-of-targets floor %d",
			d.Last.MemBytes, 8*g.NumEdges())
	}
}

func TestDistLPDeterministicForSeed(t *testing.T) {
	g := gen.RMAT(9, 8, 9)
	a, err := (&DistLP{Iterations: 20, Capacity: 1.05, Seed: 7}).PartitionCtx(context.Background(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&DistLP{Iterations: 20, Capacity: 1.05, Seed: 7}).PartitionCtx(context.Background(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Owner {
		if a.Owner[i] != b.Owner[i] {
			t.Fatalf("owners differ at edge %d", i)
		}
	}
}

// The two bodies of the label-propagation protocol account exactly the bytes
// their encoders write and survive the trip through the TCP transport's
// codec (internal/dne's FuzzBodyDecode covers their decoders with arbitrary
// bytes).
func TestBodiesRoundTripOnTheWire(t *testing.T) {
	for _, b := range []cluster.WireBody{
		vlBody{},
		vlBody{Pairs: []vl{{V: 0, L: 0}, {V: math.MaxUint32, L: math.MaxInt32}}},
		edgeOwnerBody{},
		edgeOwnerBody{Idx: []int64{0, math.MaxInt64}, Owner: []int32{math.MaxInt32, -1}},
	} {
		payload := b.AppendWire(nil)
		if len(payload) != b.WireSize() {
			t.Errorf("%#v: encoder wrote %d bytes, WireSize() = %d", b, len(payload), b.WireSize())
		}
		got, err := cluster.DecodeWire(b.WireKind(), payload)
		if err != nil {
			t.Fatalf("%#v: %v", b, err)
		}
		if again := got.(cluster.WireBody).AppendWire(nil); !bytes.Equal(again, payload) || reflect.TypeOf(got) != reflect.TypeOf(b) {
			t.Errorf("round trip of %#v gave %#v", b, got)
		}
	}
	for _, kind := range []uint8{kindVL, kindEdgeOwner} {
		if _, err := cluster.DecodeWire(kind, make([]byte, 13)); err == nil {
			t.Errorf("kind %d decoded a 13-byte payload", kind)
		}
	}
}
