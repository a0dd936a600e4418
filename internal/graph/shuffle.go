package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// ShuffleBuckets is the bucket count of the streaming shuffle: memory is
// bounded by the largest bucket (≈ |E|/ShuffleBuckets edges plus positions).
// Fixed so that the emitted order is a pure function of (raw sequence, seed),
// never of the machine.
const ShuffleBuckets = 16

// Shuffled decorates a source with a deterministic seeded stream shuffle.
// Replica-greedy streaming partitioners (HDRF, FENNEL, Oblivious, SNE)
// degenerate on adversarially ordered streams — a sorted canonical edge list
// hands every edge an endpoint it shares with its predecessor, so greedy
// replica reuse collapses the whole stream onto one partition. The classic
// fix is a random arrival order; this decorator produces one without
// materializing the stream:
//
//   - each edge key is hashed (with the seed) into one of ShuffleBuckets
//     buckets — a pseudo-random 1/B subsample of the stream;
//   - buckets are emitted in order, each one buffered, Fisher–Yates
//     shuffled with a per-bucket seeded rng, then streamed out.
//
// The emitted order is deterministic for a given (raw edge sequence, seed):
// two sources replaying the same sequence — an in-memory graph and its
// canonical shard stripes on disk — shuffle identically, which is what keeps
// the two partitioning paths bit-identical. Emitted chunks carry raw-stream
// positions, so consumers index their output by raw position exactly as if
// they had walked the stream in order.
//
// Each pass over the shuffled stream reads the underlying source exactly
// once: a scatter pass spills every edge, in raw stream order, into its
// bucket's file in a fresh temp directory, then the buckets are loaded back
// one at a time. The directory is removed when the pass reaches EOF, fails,
// or is closed.
//
// Memory is the larger of the two phases, which never overlap (the spill
// writers are closed before the first bucket loads): the scatter pass's
// write buffers, or the largest bucket (≈|E|·16B/B). Disk cost
// per pass: |E|·16 bytes of temp storage (os.TempDir), written and read back
// once.
func Shuffled(src Source, seed int64) Source {
	return &shuffledSource{inner: src, seed: seed}
}

// shuffleBucketOf routes a key to its shuffle bucket: the seed is mixed in
// so different seeds produce unrelated bucketings (and therefore unrelated
// final orders).
func shuffleBucketOf(k uint64, seed int64) uint32 {
	return ShardRoute(k^(uint64(seed)*0x9e3779b97f4a7c15+0x632be59bd9b4e019), ShuffleBuckets)
}

// shuffleBucket is the in-place per-bucket Fisher–Yates with the
// per-(seed, bucket) rng.
func shuffleBucket(keys []uint64, pos []int64, seed int64, bucket uint32) {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(bucket)))
	for i := len(keys) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		keys[i], keys[j] = keys[j], keys[i]
		pos[i], pos[j] = pos[j], pos[i]
	}
}

const (
	// spillBufBytes is the buffered-writer size per bucket spill file during
	// the scatter pass, and the reader size when a bucket loads.
	spillBufBytes = 64 << 10

	// spillRecordBytes is one spilled edge: packed key + raw stream position.
	spillRecordBytes = 16
)

// shuffledSource's counters are written by the goroutine driving a pass and
// read by the runner after it; passes of one source do not run concurrently.
type shuffledSource struct {
	inner   Source
	seed    int64
	maxBuf  int64         // largest bucket any pass has loaded, in edges
	scatter time.Duration // cumulative scatter-pass wall time
}

// ScatterTime reports the cumulative wall time this source's passes spent
// in their scatter stage (one source pass + spill writes, included in the
// consumer's overall timing). Partition runners surface it as a phase so
// traces show where a shuffled pass's time went.
func (s *shuffledSource) ScatterTime() time.Duration { return s.scatter }

func (s *shuffledSource) Info() SourceInfo {
	info := s.inner.Info()
	info.Name = "shuffled:" + info.Name
	return info
}

// Unwrap exposes the inner source for order-independent passes.
func (s *shuffledSource) Unwrap() Source { return s.inner }

// AccountBytes returns the analytic footprint of a shuffled pass: the larger
// of its scatter phase (spill write buffers and whatever the inner decorator
// holds while its stream is open) and its drain phase (the largest bucket's
// keys and positions plus the spill reader).
func (s *shuffledSource) AccountBytes() int64 {
	scatter := int64(ShuffleBuckets * spillBufBytes)
	if a, ok := s.inner.(interface{ AccountBytes() int64 }); ok {
		scatter += a.AccountBytes()
	}
	return max(scatter, s.maxBuf*16+spillBufBytes)
}

func (s *shuffledSource) Edges() (EdgeStream, error) {
	return &shuffledStream{s: s}, nil
}

type shuffledStream struct {
	s      *shuffledSource
	dir    string // spill directory; "" until the scatter pass and after cleanup
	counts [ShuffleBuckets]int64
	bucket int // next bucket to load
	keys   []uint64
	pos    []int64
	at     int
	done   bool
}

func (st *shuffledStream) Next() ([]uint64, []int64, error) {
	if st.done {
		return nil, nil, io.EOF
	}
	if st.dir == "" {
		begin := time.Now()
		err := st.scatterPass()
		st.s.scatter += time.Since(begin)
		if err != nil {
			st.Close()
			return nil, nil, err
		}
	}
	for {
		if st.at < len(st.keys) {
			n := min(len(st.keys)-st.at, SourceChunkEdges)
			keys := st.keys[st.at : st.at+n]
			pos := st.pos[st.at : st.at+n]
			st.at += n
			return keys, pos, nil
		}
		if st.bucket == ShuffleBuckets {
			st.Close()
			return nil, nil, io.EOF
		}
		if err := st.loadBucket(); err != nil {
			st.Close()
			return nil, nil, err
		}
	}
}

func spillPath(dir string, bucket int) string {
	return filepath.Join(dir, fmt.Sprintf("bucket-%02d", bucket))
}

// scatterPass reads the whole inner source once and spills every edge, in
// raw stream order, into its bucket's temp file.
func (st *shuffledStream) scatterPass() error {
	dir, err := os.MkdirTemp("", "dne-shuffle-")
	if err != nil {
		return err
	}
	st.dir = dir
	var files [ShuffleBuckets]*os.File
	var writers [ShuffleBuckets]*bufio.Writer
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	for b := range files {
		f, err := os.Create(spillPath(dir, b))
		if err != nil {
			return err
		}
		files[b] = f
		writers[b] = bufio.NewWriterSize(f, spillBufBytes)
	}

	es, err := st.s.inner.Edges()
	if err != nil {
		return err
	}
	defer es.Close()

	var raw int64
	var rec [spillRecordBytes]byte
	for {
		keys, cpos, err := es.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for j, k := range keys {
			p := raw + int64(j)
			if cpos != nil {
				p = cpos[j]
			}
			binary.LittleEndian.PutUint64(rec[0:], k)
			binary.LittleEndian.PutUint64(rec[8:], uint64(p))
			b := shuffleBucketOf(k, st.s.seed)
			if _, err := writers[b].Write(rec[:]); err != nil {
				return err
			}
			st.counts[b]++
		}
		raw += int64(len(keys))
	}
	for b := range writers {
		if err := writers[b].Flush(); err != nil {
			return err
		}
		err := files[b].Close()
		files[b] = nil
		if err != nil {
			return err
		}
	}
	// One buffer, sized for the largest bucket, serves every load.
	largest := slices.Max(st.counts[:])
	st.keys = make([]uint64, 0, largest)
	st.pos = make([]int64, 0, largest)
	st.s.maxBuf = max(st.s.maxBuf, largest)
	return nil
}

// loadBucket reads the next bucket's spill into the stream's buffer and
// applies the per-bucket Fisher–Yates.
func (st *shuffledStream) loadBucket() error {
	b := st.bucket
	st.bucket++
	path := spillPath(st.dir, b)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	count := st.counts[b]
	st.keys, st.pos, st.at = st.keys[:count], st.pos[:count], 0
	br := bufio.NewReaderSize(f, spillBufBytes)
	var rec [spillRecordBytes]byte
	for i := range st.keys {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return fmt.Errorf("graph: reading shuffle spill %s record %d: %w", path, i, err)
		}
		st.keys[i] = binary.LittleEndian.Uint64(rec[0:])
		st.pos[i] = int64(binary.LittleEndian.Uint64(rec[8:]))
	}
	shuffleBucket(st.keys, st.pos, st.s.seed, uint32(b))
	return nil
}

// Close ends the pass and removes its spill directory.
func (st *shuffledStream) Close() error {
	st.done = true
	st.keys, st.pos = nil, nil
	if st.dir == "" {
		return nil
	}
	dir := st.dir
	st.dir = ""
	return os.RemoveAll(dir)
}
