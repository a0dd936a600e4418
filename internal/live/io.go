package live

import (
	"fmt"
	"io"
	"math"

	"github.com/distributedne/dne/internal/binio"
	"github.com/distributedne/dne/internal/partition"
)

// State persistence: a versioned binary encoding of the placement slabs so
// ingestion survives restarts without replaying the event stream. Follows
// the repository's binio fixed-layout idiom under the magic "DLS1".
//
// Layout (all little-endian):
//
//	magic u32, version u32, numParts u32, numVertices u32
//	numEdges u64, events u64, moved u64, migratedBytes u64
//	alpha f64bits (always 1.1), balanceWeight f64bits (always 1), seed u64
//	sizes numParts × u64
//	deg slab numVertices × u32
//	counts slab numVertices×numParts × u32
//	checksum u64 (FNV-64a of everything before it)
//
// Paging, the cap on preallocation from a decoded count and the checksum
// trailer come from internal/binio.
//
// The ReplicaSets bit view and the replica counter are derived from the
// counts slab on load, exactly as the live path maintains them.

// stateMagic identifies the live-state format ("DLS1").
const stateMagic = 0x444c5331

// stateVersion is bumped on incompatible layout changes.
const stateVersion = 1

// WriteState serializes st.
func WriteState(w io.Writer, st *State) error {
	bw := binio.NewDigestWriter(w)
	bw.U32(stateMagic)
	bw.U32(stateVersion)
	bw.U32(uint32(st.cfg.NumParts))
	bw.U32(uint32(len(st.deg)))
	for _, x := range []uint64{uint64(st.numEdges), st.events, uint64(st.moved), uint64(st.migratedBytes),
		math.Float64bits(alpha), math.Float64bits(balanceWeight), uint64(st.cfg.Seed)} {
		bw.U64(x)
	}
	binio.Put(bw, st.sizes)
	binio.Put(bw, st.deg)
	binio.Put(bw, st.counts)
	bw.Trailer()
	return bw.Flush()
}

// ReadState reconstructs a State from the format written by WriteState,
// reading r to its end. Every count is validated and the payload digest
// checked, so a truncated, padded or hostile file errors instead of
// producing inconsistent placement state.
func ReadState(r io.Reader) (*State, error) {
	br := binio.NewDigestReader(r)
	magic, version, numParts, numVertices := br.U32(), br.U32(), br.U32(), br.U32()
	var hdr [7]uint64
	for i := range hdr {
		hdr[i] = br.U64()
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("live: reading state header: %w", err)
	}
	if magic != stateMagic {
		return nil, fmt.Errorf("live: bad state magic")
	}
	if version != stateVersion {
		return nil, fmt.Errorf("live: unsupported state version %d (want %d)", version, stateVersion)
	}
	if numParts == 0 || numParts > maxParts {
		return nil, fmt.Errorf("live: state partition count %d out of range (0,%d]", numParts, maxParts)
	}
	if a := math.Float64frombits(hdr[4]); a != alpha {
		return nil, fmt.Errorf("live: state declares alpha %g, want %g", a, alpha)
	}
	if w := math.Float64frombits(hdr[5]); w != balanceWeight {
		return nil, fmt.Errorf("live: state declares balance weight %g, want %g", w, balanceWeight)
	}
	st, err := NewState(Config{NumParts: int(numParts), Seed: int64(hdr[6])})
	if err != nil {
		return nil, err
	}
	st.numEdges = int64(hdr[0])
	st.events = hdr[1]
	st.moved = int64(hdr[2])
	st.migratedBytes = int64(hdr[3])

	if err := binio.Fill(br, st.sizes); err != nil {
		return nil, fmt.Errorf("live: reading partition sizes: %w", err)
	}
	var sizeSum int64
	for q, s := range st.sizes {
		if s < 0 {
			return nil, fmt.Errorf("live: partition %d declares negative size", q)
		}
		sizeSum += s
	}
	if sizeSum != st.numEdges {
		return nil, fmt.Errorf("live: partition sizes sum to %d, header declares %d edges", sizeSum, st.numEdges)
	}
	if st.deg = binio.Slab[uint32](br, uint64(numVertices)); br.Err() != nil {
		return nil, fmt.Errorf("live: reading degree slab: %w", br.Err())
	}
	if st.counts = binio.Slab[uint32](br, uint64(numVertices)*uint64(numParts)); br.Err() != nil {
		return nil, fmt.Errorf("live: reading incidence slab: %w", br.Err())
	}
	if err := br.Trailer(); err != nil {
		return nil, fmt.Errorf("live: state checksum: %w", err)
	}
	if err := br.End(); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}

	// Derive the bit view and counters, validating row/degree agreement.
	st.reps = partition.NewReplicaSets(int(numParts), numVertices)
	var degSum int64
	for v := uint32(0); v < numVertices; v++ {
		var rowSum uint32
		row := st.counts[int(v)*int(numParts) : (int(v)+1)*int(numParts)]
		for q, c := range row {
			if c > 0 {
				st.replicas++
				st.reps.Set(v, q)
				rowSum += c
			}
		}
		if rowSum != st.deg[v] {
			return nil, fmt.Errorf("live: vertex %d degree %d != incidence sum %d", v, st.deg[v], rowSum)
		}
		degSum += int64(st.deg[v])
	}
	if degSum != 2*st.numEdges {
		return nil, fmt.Errorf("live: degree sum %d != 2×%d edges", degSum, st.numEdges)
	}
	return st, nil
}
