package live

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"github.com/distributedne/dne/internal/gen"
)

// populatedState builds a state with real placement history.
func populatedState(t testing.TB) *State {
	t.Helper()
	st, err := NewState(Config{NumParts: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.ER(200, 900, 3)
	for _, e := range g.Edges() {
		st.ApplyInsert(e.U, e.V, st.Place(e.U, e.V))
	}
	for i, e := range g.Edges() {
		if i%7 == 0 {
			// Retract from the owner we can recompute via the rows.
			for q := 0; q < 4; q++ {
				if st.HasReplica(e.U, q) && st.HasReplica(e.V, q) {
					st.ApplyDelete(e.U, e.V, int32(q))
					break
				}
			}
		}
	}
	return st
}

// TestStateRoundTrip: save/load must reproduce the exact placement state —
// checksum, counters, invariants — and future placements must agree.
func TestStateRoundTrip(t *testing.T) {
	st := populatedState(t)
	var buf bytes.Buffer
	if err := WriteState(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := ReadState(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got.Checksum() != st.Checksum() {
		t.Fatalf("state checksum %#x, want %#x", got.Checksum(), st.Checksum())
	}
	if got.Events() != st.Events() || got.NumEdges() != st.NumEdges() {
		t.Fatalf("counters drifted: %d/%d vs %d/%d", got.Events(), got.NumEdges(), st.Events(), st.NumEdges())
	}
	if got.Config() != st.Config() {
		t.Fatalf("config drifted: %+v vs %+v", got.Config(), st.Config())
	}
	if a, b := got.Place(3, 199), st.Place(3, 199); a != b {
		t.Fatalf("loaded state places (3,199) on %d, original on %d", a, b)
	}
}

// TestStateRejectsHostileInput mirrors the repository's snapshot-hardening
// style: every mutation of a valid state file must error on load.
func TestStateRejectsHostileInput(t *testing.T) {
	st := populatedState(t)
	var buf bytes.Buffer
	if err := WriteState(&buf, st); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	cases := []struct {
		name    string
		mutate  func(b []byte) []byte
		wantErr string
	}{
		{
			name:    "bad magic",
			mutate:  func(b []byte) []byte { binary.LittleEndian.PutUint32(b[0:], 0xdeadbeef); return b },
			wantErr: "magic",
		},
		{
			name:    "bad version",
			mutate:  func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], 99); return b },
			wantErr: "version",
		},
		{
			name:    "zero partitions",
			mutate:  func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 0); return b },
			wantErr: "partition count",
		},
		{
			name:    "huge partition count",
			mutate:  func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 1<<30); return b },
			wantErr: "partition count",
		},
		{
			name:    "invalid alpha",
			mutate:  func(b []byte) []byte { binary.LittleEndian.PutUint64(b[48:], 0); return b },
			wantErr: "alpha",
		},
		{
			name:    "weight not 1",
			mutate:  func(b []byte) []byte { binary.LittleEndian.PutUint64(b[56:], math.Float64bits(2)); return b },
			wantErr: "balance weight",
		},
		{
			name:    "truncated slab",
			mutate:  func(b []byte) []byte { return b[:len(b)-200] },
			wantErr: "", // any error
		},
		{
			name:    "truncated checksum",
			mutate:  func(b []byte) []byte { return b[:len(b)-3] },
			wantErr: "checksum",
		},
		{
			name: "payload tampered",
			mutate: func(b []byte) []byte {
				b[len(b)-100] ^= 0x40 // inside the counts slab
				return b
			},
			wantErr: "", // checksum or row mismatch, either is a catch
		},
		{
			name: "checksum tampered",
			mutate: func(b []byte) []byte {
				b[len(b)-1] ^= 0xff
				return b
			},
			wantErr: "checksum",
		},
		{
			name: "edge count lies",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[16:], 1)
				return b
			},
			wantErr: "", // sizes-vs-header check (checksum also fires)
		},
		{
			name:    "empty file",
			mutate:  func(b []byte) []byte { return nil },
			wantErr: "header",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), valid...))
			_, err := ReadState(bytes.NewReader(mutated))
			if err == nil {
				t.Fatal("hostile state file loaded without error")
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
