package live

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"github.com/distributedne/dne/internal/partition"
)

// State persistence: a versioned binary encoding of the placement slabs so
// ingestion survives restarts without replaying the event stream. Follows
// the repository's "DNS1"/"DNP1" header idiom ("DLS1").
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
// The ReplicaSets bit view and the replica counter are derived from the
// counts slab on load, exactly as the live path maintains them.

// stateMagic identifies the live-state format ("DLS1").
const stateMagic = 0x444c5331

// stateVersion is bumped on incompatible layout changes.
const stateVersion = 1

// maxPrealloc caps slice preallocation driven by untrusted header counts.
const maxPrealloc = 1 << 20

func capCount(n uint64) int {
	if n > maxPrealloc {
		return maxPrealloc
	}
	return int(n)
}

// WriteState serializes st.
func WriteState(w io.Writer, st *State) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	h := fnv.New64a()
	hw := io.MultiWriter(bw, h)
	var hdr [16 + 32 + 24]byte
	binary.LittleEndian.PutUint32(hdr[0:], stateMagic)
	binary.LittleEndian.PutUint32(hdr[4:], stateVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(st.cfg.NumParts))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(st.deg)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(st.numEdges))
	binary.LittleEndian.PutUint64(hdr[24:], st.events)
	binary.LittleEndian.PutUint64(hdr[32:], uint64(st.moved))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(st.migratedBytes))
	binary.LittleEndian.PutUint64(hdr[48:], math.Float64bits(alpha))
	binary.LittleEndian.PutUint64(hdr[56:], math.Float64bits(balanceWeight))
	binary.LittleEndian.PutUint64(hdr[64:], uint64(st.cfg.Seed))
	if _, err := hw.Write(hdr[:]); err != nil {
		return err
	}
	var b8 [8]byte
	for _, s := range st.sizes {
		binary.LittleEndian.PutUint64(b8[:], uint64(s))
		if _, err := hw.Write(b8[:]); err != nil {
			return err
		}
	}
	if err := writeU32s(hw, st.deg); err != nil {
		return err
	}
	if err := writeU32s(hw, st.counts); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b8[:], h.Sum64())
	if _, err := bw.Write(b8[:]); err != nil {
		return err
	}
	return bw.Flush()
}

func writeU32s(w io.Writer, xs []uint32) error {
	var page [8192 * 4]byte
	for len(xs) > 0 {
		n := min(len(xs), 8192)
		for i, x := range xs[:n] {
			binary.LittleEndian.PutUint32(page[i*4:], x)
		}
		if _, err := w.Write(page[:n*4]); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

// ReadState reconstructs a State from the format written by WriteState.
// Every count is validated and the payload digest checked, so a truncated
// or hostile file errors instead of producing inconsistent placement state.
func ReadState(r io.Reader) (*State, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	h := fnv.New64a()
	hr := io.TeeReader(br, h)
	var hdr [16 + 32 + 24]byte
	if _, err := io.ReadFull(hr, hdr[:]); err != nil {
		return nil, fmt.Errorf("live: reading state header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != stateMagic {
		return nil, fmt.Errorf("live: bad state magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != stateVersion {
		return nil, fmt.Errorf("live: unsupported state version %d (want %d)", v, stateVersion)
	}
	numParts := binary.LittleEndian.Uint32(hdr[8:])
	numVertices := binary.LittleEndian.Uint32(hdr[12:])
	numEdges := binary.LittleEndian.Uint64(hdr[16:])
	events := binary.LittleEndian.Uint64(hdr[24:])
	moved := binary.LittleEndian.Uint64(hdr[32:])
	migratedBytes := binary.LittleEndian.Uint64(hdr[40:])
	seed := int64(binary.LittleEndian.Uint64(hdr[64:]))
	if numParts == 0 || numParts > maxParts {
		return nil, fmt.Errorf("live: state partition count %d out of range (0,%d]", numParts, maxParts)
	}
	if a := math.Float64frombits(binary.LittleEndian.Uint64(hdr[48:])); a != alpha {
		return nil, fmt.Errorf("live: state declares alpha %g, want %g", a, alpha)
	}
	if w := math.Float64frombits(binary.LittleEndian.Uint64(hdr[56:])); w != balanceWeight {
		return nil, fmt.Errorf("live: state declares balance weight %g, want %g", w, balanceWeight)
	}
	st, err := NewState(Config{NumParts: int(numParts), Seed: seed})
	if err != nil {
		return nil, err
	}
	st.numEdges = int64(numEdges)
	st.events = events
	st.moved = int64(moved)
	st.migratedBytes = int64(migratedBytes)

	var b8 [8]byte
	var sizeSum int64
	for q := range st.sizes {
		if _, err := io.ReadFull(hr, b8[:]); err != nil {
			return nil, fmt.Errorf("live: reading partition sizes: %w", err)
		}
		s := int64(binary.LittleEndian.Uint64(b8[:]))
		if s < 0 {
			return nil, fmt.Errorf("live: partition %d declares negative size", q)
		}
		st.sizes[q] = s
		sizeSum += s
	}
	if sizeSum != st.numEdges {
		return nil, fmt.Errorf("live: partition sizes sum to %d, header declares %d edges", sizeSum, numEdges)
	}

	st.deg, err = readU32Slab(hr, uint64(numVertices), "degree")
	if err != nil {
		return nil, err
	}
	st.counts, err = readU32Slab(hr, uint64(numVertices)*uint64(numParts), "incidence")
	if err != nil {
		return nil, err
	}
	want := h.Sum64()
	if _, err := io.ReadFull(br, b8[:]); err != nil {
		return nil, fmt.Errorf("live: reading state checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(b8[:]); got != want {
		return nil, fmt.Errorf("live: state checksum %#x does not match payload %#x", got, want)
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

func readU32Slab(r io.Reader, count uint64, what string) ([]uint32, error) {
	out := make([]uint32, 0, capCount(count))
	var page [8192 * 4]byte
	var done uint64
	for done < count {
		chunk := min(uint64(8192), count-done)
		b := page[:chunk*4]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("live: reading %s slab: %w", what, err)
		}
		for i := uint64(0); i < chunk; i++ {
			out = append(out, binary.LittleEndian.Uint32(b[i*4:]))
		}
		done += chunk
	}
	return out, nil
}
