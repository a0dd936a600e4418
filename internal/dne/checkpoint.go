package dne

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/distributedne/dne/internal/dsa"
)

// Superstep checkpointing: each rank persists its machine-local state at
// superstep boundaries so a killed worker can restart, rejoin the mesh, and
// resume — with the recovered run bit-identical to a fault-free one.
//
// Two files per rank, following the repository's versioned-header idiom:
//
//   - base-rNNN.dnc ("DNB1"): the immutable post-shuffle input — the rank's
//     sorted packed edge keys plus |V| and global |E|. Written once; the
//     subgraph's static structure (CSR, offsets) is rebuilt from it.
//   - state-rNNN-sNNNNNNNN.dnc ("DNC1"): the mutable overlay at superstep s —
//     owner words, compacted adjacency (eIdx + aliveLen), partition bitsets,
//     the live boundary, PRNG draw counts, the global size vectors, loop
//     counters. Everything derivable (drest, freeEdges, the target array) is
//     recomputed on load instead of stored.
//
// Both carry a config fingerprint (seed, α, λ, |P|, mode flags) and end in
// an FNV-64a digest of the full payload; writes go through a temp file +
// rename so a crash mid-write can never leave a readable half-checkpoint.
//
// Only the two newest state files are retained. That suffices for recovery:
// a superstep ends by receiving every rank's step message, so no rank can
// finish superstep i+1 before every rank finished superstep i, and the newest
// checkpoint supersteps across ranks differ by at most one interval — the
// negotiated min (cluster.AllGatherMin) is always present on every rank.

const (
	ckptStateMagic = 0x444e4331 // "DNC1"
	ckptBaseMagic  = 0x444e4231 // "DNB1"
	ckptVersion    = 2
	ckptKeep       = 2
)

// ckptObs aggregates process-cumulative checkpoint/rejoin events, exposed
// via RegisterMetrics.
var ckptObs struct {
	written  atomic.Int64
	restored atomic.Int64
	rejoins  atomic.Int64
	bytes    atomic.Int64
}

// Checkpointer owns one rank's checkpoint directory.
type Checkpointer struct {
	dir   string
	rank  int
	size  int
	every int
	fp    uint64 // config fingerprint
}

// NewCheckpointer prepares dir for rank's checkpoints of a size-rank run
// under cfg. every is the checkpoint interval in supersteps (<=0 means 1).
func NewCheckpointer(dir string, rank, size, every int, cfg Config) (*Checkpointer, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("dne: checkpoint dir: %w", err)
	}
	if every <= 0 {
		every = 1
	}
	return &Checkpointer{dir: dir, rank: rank, size: size, every: every, fp: configFingerprint(cfg, size)}, nil
}

// configFingerprint digests the parameters that determine a run's message
// protocol and random choices; checkpoints from a differently-configured run
// are invisible rather than wrongly restored.
func configFingerprint(cfg Config, size int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(size))
	put(uint64(cfg.Seed))
	put(math.Float64bits(cfg.Alpha))
	put(math.Float64bits(cfg.Lambda))
	// Bit 2 is reserved: checkpoint dirs written with it set came from runs
	// with a broadcast fan-out, and must stay invisible to every config.
	var flags uint64
	if cfg.SingleExpansion {
		flags |= 1
	}
	put(flags)
	put(uint64(cfg.MaxIterations))
	return h.Sum64()
}

func (c *Checkpointer) basePath() string {
	return filepath.Join(c.dir, fmt.Sprintf("base-r%03d.dnc", c.rank))
}

func (c *Checkpointer) statePath(superstep int64) string {
	return filepath.Join(c.dir, fmt.Sprintf("state-r%03d-s%08d.dnc", c.rank, superstep))
}

// machineCkpt is the deserialized mutable state of one rank at one
// superstep boundary (top of the loop, before the superstep runs).
type machineCkpt struct {
	iter       int64
	seedCur    int64
	wasted     int64
	selections int64
	rng63      uint64 // Int63 draws consumed from the counting source
	rng64      uint64 // Uint64 draws consumed from the counting source
	bndPeak    int64

	partSizes    []int64
	freeVec      []int64
	localPerPart []int64

	owner     []int32
	eIdx      []int32
	aliveLen  []int32
	partWords []uint64

	bndLive []dsa.BoundaryEntry
}

// hashedWriter tees writes through an FNV-64a digest.
type hashedWriter struct {
	w io.Writer
	h interface {
		io.Writer
		Sum64() uint64
	}
}

func (hw *hashedWriter) Write(p []byte) (int, error) {
	hw.h.Write(p)
	return hw.w.Write(p)
}

func writeU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeU64Slice(w io.Writer, xs []uint64) error {
	if err := writeU64(w, uint64(len(xs))); err != nil {
		return err
	}
	var page [8192 * 8]byte
	for len(xs) > 0 {
		n := min(len(xs), 8192)
		for i, x := range xs[:n] {
			binary.LittleEndian.PutUint64(page[i*8:], x)
		}
		if _, err := w.Write(page[:n*8]); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

func writeI64Slice(w io.Writer, xs []int64) error {
	if err := writeU64(w, uint64(len(xs))); err != nil {
		return err
	}
	for _, x := range xs {
		if err := writeU64(w, uint64(x)); err != nil {
			return err
		}
	}
	return nil
}

func writeI32Slice(w io.Writer, xs []int32) error {
	if err := writeU64(w, uint64(len(xs))); err != nil {
		return err
	}
	var page [8192 * 4]byte
	for len(xs) > 0 {
		n := min(len(xs), 8192)
		for i, x := range xs[:n] {
			binary.LittleEndian.PutUint32(page[i*4:], uint32(x))
		}
		if _, err := w.Write(page[:n*4]); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// ckptMaxCount caps a single section's declared element count (2^32): well
// above any real per-rank slab, well below anything that could wrap an
// allocation size.
const ckptMaxCount = 1 << 32

func readCount(r io.Reader) (int, error) {
	n, err := readU64(r)
	if err != nil {
		return 0, err
	}
	if n > ckptMaxCount {
		return 0, fmt.Errorf("dne: checkpoint section declares %d elements", n)
	}
	return int(n), nil
}

func readU64Slice(r io.Reader) ([]uint64, error) {
	n, err := readCount(r)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	var page [8192 * 8]byte
	for off := 0; off < n; {
		chunk := min(8192, n-off)
		b := page[:chunk*8]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < chunk; i++ {
			out[off+i] = binary.LittleEndian.Uint64(b[i*8:])
		}
		off += chunk
	}
	return out, nil
}

func readI64Slice(r io.Reader) ([]int64, error) {
	u, err := readU64Slice(r)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(u))
	for i, x := range u {
		out[i] = int64(x)
	}
	return out, nil
}

func readI32Slice(r io.Reader) ([]int32, error) {
	n, err := readCount(r)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	var page [8192 * 4]byte
	for off := 0; off < n; {
		chunk := min(8192, n-off)
		b := page[:chunk*4]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < chunk; i++ {
			out[off+i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
		}
		off += chunk
	}
	return out, nil
}

// atomicWrite streams fill into path via a temp file + fsync + rename, so
// the file either exists complete or not at all.
func atomicWrite(path string, fill func(w io.Writer) error) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := fill(bw); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	info, _ := f.Stat()
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	var n int64
	if info != nil {
		n = info.Size()
	}
	return n, nil
}

// WriteBase persists the rank's immutable post-shuffle input.
func (c *Checkpointer) WriteBase(numVertices uint32, totalEdges int64, packed []uint64) error {
	n, err := atomicWrite(c.basePath(), func(w io.Writer) error {
		hw := &hashedWriter{w: w, h: fnv.New64a()}
		for _, v := range []uint64{ckptBaseMagic, ckptVersion, uint64(c.rank), uint64(c.size), c.fp,
			uint64(numVertices), uint64(totalEdges)} {
			if err := writeU64(hw, v); err != nil {
				return err
			}
		}
		if err := writeU64Slice(hw, packed); err != nil {
			return err
		}
		return writeU64(w, hw.h.Sum64())
	})
	if err != nil {
		return fmt.Errorf("dne: writing checkpoint base: %w", err)
	}
	ckptObs.bytes.Add(n)
	return nil
}

// LoadBase reads back the post-shuffle input, validating the fingerprint
// and digest.
func (c *Checkpointer) LoadBase() (numVertices uint32, totalEdges int64, packed []uint64, err error) {
	f, err := os.Open(c.basePath())
	if err != nil {
		return 0, 0, nil, fmt.Errorf("dne: opening checkpoint base: %w", err)
	}
	defer f.Close()
	digest := fnv.New64a()
	br := bufio.NewReaderSize(f, 1<<16)
	r := io.TeeReader(br, digest)
	var hdr [7]uint64
	for i := range hdr {
		if hdr[i], err = readU64(r); err != nil {
			return 0, 0, nil, fmt.Errorf("dne: reading checkpoint base header: %w", err)
		}
	}
	if hdr[0] != ckptBaseMagic || hdr[1] != ckptVersion {
		return 0, 0, nil, fmt.Errorf("dne: checkpoint base has bad magic/version %#x/%d", hdr[0], hdr[1])
	}
	if hdr[2] != uint64(c.rank) || hdr[3] != uint64(c.size) || hdr[4] != c.fp {
		return 0, 0, nil, errors.New("dne: checkpoint base belongs to a different run configuration")
	}
	if packed, err = readU64Slice(r); err != nil {
		return 0, 0, nil, fmt.Errorf("dne: reading checkpoint base edges: %w", err)
	}
	want := digest.Sum64()
	got, err := readU64(br)
	if err != nil || got != want {
		return 0, 0, nil, fmt.Errorf("dne: checkpoint base digest mismatch (read err: %v)", err)
	}
	return uint32(hdr[5]), int64(hdr[6]), packed, nil
}

// WriteState persists the mutable overlay at st.iter and prunes all but the
// newest ckptKeep state files.
func (c *Checkpointer) WriteState(st *machineCkpt) error {
	n, err := atomicWrite(c.statePath(st.iter), func(w io.Writer) error {
		hw := &hashedWriter{w: w, h: fnv.New64a()}
		for _, v := range []uint64{ckptStateMagic, ckptVersion, uint64(c.rank), uint64(c.size), c.fp,
			uint64(st.iter), uint64(st.seedCur),
			uint64(st.wasted), uint64(st.selections), st.rng63, st.rng64, uint64(st.bndPeak)} {
			if err := writeU64(hw, v); err != nil {
				return err
			}
		}
		for _, xs := range [][]int64{st.partSizes, st.freeVec, st.localPerPart} {
			if err := writeI64Slice(hw, xs); err != nil {
				return err
			}
		}
		for _, xs := range [][]int32{st.owner, st.eIdx, st.aliveLen} {
			if err := writeI32Slice(hw, xs); err != nil {
				return err
			}
		}
		if err := writeU64Slice(hw, st.partWords); err != nil {
			return err
		}
		if err := writeU64(hw, uint64(len(st.bndLive))); err != nil {
			return err
		}
		for _, e := range st.bndLive {
			var b [8]byte
			binary.LittleEndian.PutUint32(b[0:], e.V)
			binary.LittleEndian.PutUint32(b[4:], uint32(e.Score))
			if _, err := hw.Write(b[:]); err != nil {
				return err
			}
		}
		return writeU64(w, hw.h.Sum64())
	})
	if err != nil {
		return fmt.Errorf("dne: writing checkpoint state s%d: %w", st.iter, err)
	}
	ckptObs.written.Add(1)
	ckptObs.bytes.Add(n)
	c.prune()
	return nil
}

// LoadState reads the overlay checkpointed at the given superstep.
func (c *Checkpointer) LoadState(superstep int64) (*machineCkpt, error) {
	f, err := os.Open(c.statePath(superstep))
	if err != nil {
		return nil, fmt.Errorf("dne: opening checkpoint state: %w", err)
	}
	defer f.Close()
	digest := fnv.New64a()
	br := bufio.NewReaderSize(f, 1<<16)
	r := io.TeeReader(br, digest)
	var hdr [12]uint64
	for i := range hdr {
		if hdr[i], err = readU64(r); err != nil {
			return nil, fmt.Errorf("dne: reading checkpoint state header: %w", err)
		}
	}
	if hdr[0] != ckptStateMagic || hdr[1] != ckptVersion {
		return nil, fmt.Errorf("dne: checkpoint state has bad magic/version %#x/%d", hdr[0], hdr[1])
	}
	if hdr[2] != uint64(c.rank) || hdr[3] != uint64(c.size) || hdr[4] != c.fp {
		return nil, errors.New("dne: checkpoint state belongs to a different run configuration")
	}
	if int64(hdr[5]) != superstep {
		return nil, fmt.Errorf("dne: checkpoint state claims superstep %d, file named %d", hdr[5], superstep)
	}
	st := &machineCkpt{
		iter: int64(hdr[5]), seedCur: int64(hdr[6]), wasted: int64(hdr[7]), selections: int64(hdr[8]),
		rng63: hdr[9], rng64: hdr[10], bndPeak: int64(hdr[11]),
	}
	for _, dst := range []*[]int64{&st.partSizes, &st.freeVec, &st.localPerPart} {
		if *dst, err = readI64Slice(r); err != nil {
			return nil, fmt.Errorf("dne: reading checkpoint vectors: %w", err)
		}
	}
	for _, dst := range []*[]int32{&st.owner, &st.eIdx, &st.aliveLen} {
		if *dst, err = readI32Slice(r); err != nil {
			return nil, fmt.Errorf("dne: reading checkpoint slabs: %w", err)
		}
	}
	if st.partWords, err = readU64Slice(r); err != nil {
		return nil, fmt.Errorf("dne: reading checkpoint bitsets: %w", err)
	}
	nLive, err := readCount(r)
	if err != nil {
		return nil, fmt.Errorf("dne: reading checkpoint boundary: %w", err)
	}
	st.bndLive = make([]dsa.BoundaryEntry, nLive)
	for i := range st.bndLive {
		var b [8]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return nil, fmt.Errorf("dne: reading checkpoint boundary: %w", err)
		}
		st.bndLive[i] = dsa.BoundaryEntry{
			V:     binary.LittleEndian.Uint32(b[0:]),
			Score: int32(binary.LittleEndian.Uint32(b[4:])),
		}
	}
	want := digest.Sum64()
	got, err := readU64(br)
	if err != nil || got != want {
		return nil, fmt.Errorf("dne: checkpoint state digest mismatch (read err: %v)", err)
	}
	ckptObs.restored.Add(1)
	return st, nil
}

// Newest returns the newest superstep with a valid-looking state checkpoint
// for this rank and configuration (header check only; the digest is
// verified by LoadState), or -1. A rank with state checkpoints but no
// readable base also reports -1 — it could not restore from them.
func (c *Checkpointer) Newest() int64 {
	if _, err := os.Stat(c.basePath()); err != nil {
		return -1
	}
	best := int64(-1)
	for _, s := range c.listStates() {
		if s <= best {
			continue
		}
		if c.validHeader(s) {
			best = s
		}
	}
	return best
}

// listStates returns the superstep numbers of this rank's state files,
// ascending.
func (c *Checkpointer) listStates() []int64 {
	prefix := fmt.Sprintf("state-r%03d-s", c.rank)
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil
	}
	var out []int64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".dnc") {
			continue
		}
		s, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".dnc"), 10, 64)
		if err != nil || s < 0 {
			continue
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// validHeader cheaply checks magic/version/rank/size/fingerprint of one
// state file.
func (c *Checkpointer) validHeader(superstep int64) bool {
	f, err := os.Open(c.statePath(superstep))
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [6]uint64
	for i := range hdr {
		if hdr[i], err = readU64(f); err != nil {
			return false
		}
	}
	return hdr[0] == ckptStateMagic && hdr[1] == ckptVersion &&
		hdr[2] == uint64(c.rank) && hdr[3] == uint64(c.size) &&
		hdr[4] == c.fp && int64(hdr[5]) == superstep
}

// prune removes all but the newest ckptKeep state files.
func (c *Checkpointer) prune() {
	states := c.listStates()
	for len(states) > ckptKeep {
		os.Remove(c.statePath(states[0]))
		states = states[1:]
	}
}
