package dne

import (
	"encoding/binary"
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

	"github.com/distributedne/dne/internal/binio"
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
// Both are little-endian u64 header words — magic, version, rank, size, a
// config fingerprint (seed, α, λ, |P|, mode flags) and the scalars above —
// then count-prefixed sections, and end in an FNV-64a digest of the full
// payload. Paging, the cap on preallocation from a section count, the
// digest trailer and the replace (temp file, fsync, rename, so a crash
// mid-write can never leave a readable half-checkpoint) all come from
// internal/binio.
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

// putSection writes one count-prefixed section.
func putSection[T binio.Word](w *binio.Writer, xs []T) {
	w.U64(uint64(len(xs)))
	binio.Put(w, xs)
}

// section reads one count-prefixed section; the count is untrusted.
func section[T binio.Word](r *binio.Reader) []T {
	return binio.Slab[T](r, r.U64())
}

// readHeader fills hdr with a checkpoint file's leading words and checks
// its magic, version and run configuration (rank, size, fingerprint).
func (c *Checkpointer) readHeader(r *binio.Reader, kind string, magic uint64, hdr []uint64) error {
	if err := binio.Fill(r, hdr); err != nil {
		return fmt.Errorf("dne: reading checkpoint %s header: %w", kind, err)
	}
	if hdr[0] != magic || hdr[1] != ckptVersion {
		return fmt.Errorf("dne: checkpoint %s has bad magic/version %#x/%d", kind, hdr[0], hdr[1])
	}
	if hdr[2] != uint64(c.rank) || hdr[3] != uint64(c.size) || hdr[4] != c.fp {
		return fmt.Errorf("dne: checkpoint %s belongs to a different run configuration", kind)
	}
	return nil
}

// readTail checks a checkpoint's digest trailer and that nothing follows it.
func readTail(r *binio.Reader, kind string) error {
	if err := r.Trailer(); err != nil {
		return fmt.Errorf("dne: checkpoint %s digest mismatch: %w", kind, err)
	}
	if err := r.End(); err != nil {
		return fmt.Errorf("dne: checkpoint %s: %w", kind, err)
	}
	return nil
}

// WriteBase persists the rank's immutable post-shuffle input.
func (c *Checkpointer) WriteBase(numVertices uint32, totalEdges int64, packed []uint64) error {
	n, err := binio.Replace(c.basePath(), func(w io.Writer) error {
		bw := binio.NewDigestWriter(w)
		binio.Put(bw, []uint64{ckptBaseMagic, ckptVersion, uint64(c.rank), uint64(c.size), c.fp,
			uint64(numVertices), uint64(totalEdges)})
		putSection(bw, packed)
		bw.Trailer()
		return bw.Flush()
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
	r := binio.NewDigestReader(f)
	var hdr [7]uint64
	if err := c.readHeader(r, "base", ckptBaseMagic, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	if hdr[5] > math.MaxUint32 {
		return 0, 0, nil, fmt.Errorf("dne: checkpoint base declares %d vertices", hdr[5])
	}
	if packed = section[uint64](r); r.Err() != nil {
		return 0, 0, nil, fmt.Errorf("dne: reading checkpoint base edges: %w", r.Err())
	}
	if err := readTail(r, "base"); err != nil {
		return 0, 0, nil, err
	}
	return uint32(hdr[5]), int64(hdr[6]), packed, nil
}

// WriteState persists the mutable overlay at st.iter and prunes all but the
// newest ckptKeep state files.
func (c *Checkpointer) WriteState(st *machineCkpt) error {
	n, err := binio.Replace(c.statePath(st.iter), func(w io.Writer) error {
		bw := binio.NewDigestWriter(w)
		binio.Put(bw, []uint64{ckptStateMagic, ckptVersion, uint64(c.rank), uint64(c.size), c.fp,
			uint64(st.iter), uint64(st.seedCur),
			uint64(st.wasted), uint64(st.selections), st.rng63, st.rng64, uint64(st.bndPeak)})
		for _, xs := range [][]int64{st.partSizes, st.freeVec, st.localPerPart} {
			putSection(bw, xs)
		}
		for _, xs := range [][]int32{st.owner, st.eIdx, st.aliveLen} {
			putSection(bw, xs)
		}
		putSection(bw, st.partWords)
		bw.U64(uint64(len(st.bndLive)))
		for _, e := range st.bndLive {
			bw.U32(e.V)
			bw.U32(uint32(e.Score))
		}
		bw.Trailer()
		return bw.Flush()
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
	r := binio.NewDigestReader(f)
	var hdr [12]uint64
	if err := c.readHeader(r, "state", ckptStateMagic, hdr[:]); err != nil {
		return nil, err
	}
	if int64(hdr[5]) != superstep {
		return nil, fmt.Errorf("dne: checkpoint state claims superstep %d, file named %d", hdr[5], superstep)
	}
	st := &machineCkpt{
		iter: int64(hdr[5]), seedCur: int64(hdr[6]), wasted: int64(hdr[7]), selections: int64(hdr[8]),
		rng63: hdr[9], rng64: hdr[10], bndPeak: int64(hdr[11]),
	}
	st.partSizes, st.freeVec, st.localPerPart = section[int64](r), section[int64](r), section[int64](r)
	st.owner, st.eIdx, st.aliveLen = section[int32](r), section[int32](r), section[int32](r)
	st.partWords = section[uint64](r)
	// A boundary entry is one word: V in the low half, Score in the high.
	bnd := section[uint64](r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dne: reading checkpoint state s%d: %w", superstep, err)
	}
	st.bndLive = make([]dsa.BoundaryEntry, len(bnd))
	for i, w := range bnd {
		st.bndLive[i] = dsa.BoundaryEntry{V: uint32(w), Score: int32(w >> 32)}
	}
	if err := readTail(r, "state"); err != nil {
		return nil, err
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
	return c.readHeader(binio.NewReader(f), "state", ckptStateMagic, hdr[:]) == nil && int64(hdr[5]) == superstep
}

// prune removes all but the newest ckptKeep state files.
func (c *Checkpointer) prune() {
	states := c.listStates()
	for len(states) > ckptKeep {
		os.Remove(c.statePath(states[0]))
		states = states[1:]
	}
}
