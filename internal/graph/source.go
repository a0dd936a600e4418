package graph

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	"github.com/distributedne/dne/internal/binio"
)

// Source is the input side of the partitioner API: a re-streamable supply of
// edges. It is what lets every single-pass method partition a graph larger
// than any machine's memory — the stream is consumed chunk by chunk, never
// materialized.
//
// The contract every implementation honors:
//
//   - Edges opens a fresh pass over the same edge sequence each time it is
//     called (multi-pass methods count degrees on one pass and assign on the
//     next). Passes are deterministic: the same source yields the same
//     sequence every time.
//   - Chunks hold packed canonical keys (PackEdge: min<<32|max) and never
//     contain self loops; sources canonicalize and drop self loops exactly
//     as FromEdges would.
//   - Hints in SourceInfo are exact when non-zero and 0 when unknown.
//
// A source backed by an in-memory Graph (SourceOf) yields the canonical
// deduplicated edge list in index order, so a partitioning computed from it
// is indexed exactly like one computed from the graph itself. Shard
// directories written as canonical stripes (ShardsOf / gengraph -canonical)
// replay that same sequence from disk in O(chunk) memory, which is what
// makes the source path bit-identical to the in-memory path. Raw sources
// (hash-routed shard dirs, generator sample streams) yield a valid stream
// whose positions index the stream itself, duplicates included.
type Source interface {
	// Info returns what the source knows about its stream up front.
	Info() SourceInfo
	// Edges opens a fresh pass over the stream.
	Edges() (EdgeStream, error)
}

// SourceInfo describes a source's stream. Zero values mean unknown; non-zero
// values are exact.
type SourceInfo struct {
	// Name identifies the origin for logs and stats ("graph", "shard-dir:…").
	Name string
	// NumVertices is the global vertex-id space size (max id + 1).
	NumVertices uint32
	// NumEdges is the exact number of edges the stream yields, or 0 when the
	// source cannot know without a pass (generator streams that drop self
	// loops on the fly).
	NumEdges int64
}

// EdgeStream is one pass over a source. The chunks returned by Next are
// reused by subsequent calls; callers must consume them before calling Next
// again.
type EdgeStream interface {
	// Next returns the next chunk of packed canonical edges, or io.EOF after
	// the last chunk. pos, when non-nil, is aligned with keys and carries
	// each edge's position in the source's raw stream; a nil pos means the
	// chunk is sequential — positions continue from the running edge count.
	// Order decorators (Shuffled) emit edges out of raw order and use pos to
	// say where each one came from, so a partitioning's Owner array is
	// always indexed by raw stream position (canonical edge index, for
	// canonical sources) no matter the processing order. A stream that
	// errors is permanently broken.
	Next() (keys []uint64, pos []int64, err error)
	// Close releases the pass's resources. It is safe after io.EOF.
	Close() error
}

// Unwrapper is implemented by order decorators; consumers running
// order-independent passes (degree counting, quality measurement) unwrap to
// scan the raw source directly.
type Unwrapper interface {
	Unwrap() Source
}

// RawSource strips order decorators off src.
func RawSource(src Source) Source {
	for {
		u, ok := src.(Unwrapper)
		if !ok {
			return src
		}
		src = u.Unwrap()
	}
}

// SourceChunkEdges is the chunk granularity of in-process sources (64 KiB of
// payload), matching the EShard on-disk chunking.
const SourceChunkEdges = shardChunkEdges

// SourceBufferBytes is the analytic accounting charge for one open stream's
// chunk buffers (encoded page + decoded chunk at the standard chunk size).
// Stream partitioners add it per pass they hold open.
const SourceBufferBytes = int64(SourceChunkEdges * (8 + 8))

// ---------------------------------------------------------------------------
// Graph-backed source

type graphSource struct{ g *Graph }

// SourceOf adapts an in-memory graph into a Source that yields the canonical
// edge list in index order. It is the bridge that keeps Partition(ctx, g,
// spec) a thin wrapper over the stream path: both consume the exact same
// sequence.
func SourceOf(g *Graph) Source { return graphSource{g} }

func (s graphSource) Info() SourceInfo {
	return SourceInfo{Name: "graph", NumVertices: s.g.NumVertices(), NumEdges: s.g.NumEdges()}
}

func (s graphSource) Edges() (EdgeStream, error) {
	return &graphStream{edges: s.g.Edges(), buf: make([]uint64, 0, SourceChunkEdges)}, nil
}

type graphStream struct {
	edges []Edge
	pos   int
	buf   []uint64
}

func (st *graphStream) Next() ([]uint64, []int64, error) {
	if st.pos >= len(st.edges) {
		return nil, nil, io.EOF
	}
	n := len(st.edges) - st.pos
	if n > SourceChunkEdges {
		n = SourceChunkEdges
	}
	buf := st.buf[:n]
	for i, e := range st.edges[st.pos : st.pos+n] {
		buf[i] = uint64(e.U)<<32 | uint64(e.V) // already canonical
	}
	st.pos += n
	return buf, nil, nil
}

func (st *graphStream) Close() error { return nil }

// ---------------------------------------------------------------------------
// Shard-directory source

// DirSource opens a directory of shard files (*.esh raw, *.esz compressed,
// mixed freely) as a Source. The shard set is validated up front exactly
// like ReadShardDir — consistent headers, every index present exactly once,
// file count matching the declared shard count — and each pass streams the
// files in shard-index order, one O(chunk)-memory ShardReader at a time. For
// canonical stripe sets (gengraph -canonical, ShardsOf) index order replays
// the canonical edge list, so partitionings computed from the directory are
// bit-identical to in-memory ones.
func DirSource(dir string) (Source, error) {
	files, err := scanShardDir(dir)
	if err != nil {
		return nil, err
	}
	src := &dirSource{dir: dir, files: files}
	for _, f := range files {
		src.numEdges += int64(f.numEdges)
	}
	return src, nil
}

type shardDirFile struct {
	path     string
	info     ShardInfo
	codec    *shardCodec
	numEdges uint64 // authoritative count from the footer
	size     int64  // on-disk bytes
}

// capEdges is what a reader of sf preallocates for its edges: the walked
// count, capped by the two bytes every encoded edge takes at least, since a
// hostile ESZ1 frame header can declare more edges than its payload holds.
func (sf shardDirFile) capEdges() int { return int(min(sf.numEdges, uint64(sf.size)/2)) }

// scanShardDir validates a shard directory without streaming edge payloads:
// every header is read and cross-checked, and each file's frame structure
// is walked (payloads skipped) to recover its exact edge count — the basis
// of DirSource's |E| hint. Raw EShard files (*.esh) and compressed ESZ1
// files (*.esz) may be mixed — the formats yield identical edge streams,
// only the bytes differ. The shared |V| header is untrusted: every consumer
// sizes O(|V|) state from it, so it must pass VertexClaimOK against the
// directory's total edge count. It is the shared validation under
// ReadShardDir, DirSource, ShardDirStats and graphstat -shard-dir.
func scanShardDir(dir string) ([]shardDirFile, error) {
	var paths []string
	for _, c := range shardCodecs {
		p, err := filepath.Glob(filepath.Join(dir, "*"+c.fileExt))
		if err != nil {
			return nil, err
		}
		paths = append(paths, p...)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("graph: no *.esh or *.esz shard files in %s", dir)
	}
	slices.Sort(paths)
	files := make([]shardDirFile, 0, len(paths))
	seen := make(map[uint32]string)
	var edges uint64
	for _, path := range paths {
		sf, err := peekShardFile(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if prev, dup := seen[sf.info.Index]; dup {
			return nil, fmt.Errorf("graph: shard index %d in both %s and %s", sf.info.Index, prev, path)
		}
		seen[sf.info.Index] = path
		if len(files) > 0 {
			first := files[0]
			if sf.info.NumVertices != first.info.NumVertices || sf.info.Count != first.info.Count {
				return nil, fmt.Errorf("graph: %s header (|V|=%d, %d shards) inconsistent with %s (|V|=%d, %d shards)",
					path, sf.info.NumVertices, sf.info.Count, first.path, first.info.NumVertices, first.info.Count)
			}
		}
		files = append(files, sf)
		edges += sf.numEdges
	}
	if uint32(len(paths)) != files[0].info.Count {
		return nil, fmt.Errorf("graph: %s holds %d shard files but headers declare %d shards",
			dir, len(paths), files[0].info.Count)
	}
	if n := files[0].info.NumVertices; !VertexClaimOK(uint64(n), edges) {
		return nil, fmt.Errorf("graph: %s headers claim %d vertices but the shards hold only %d edges; claim exceeds %d + %d per edge",
			dir, n, edges, maxFreeVertices, maxVerticesPerEdge)
	}
	slices.SortFunc(files, func(a, b shardDirFile) int { return int(a.info.Index) - int(b.info.Index) })
	return files, nil
}

// peekShardFile reads one shard file's header and its exact edge count from
// the frame walk, payloads skipped. The walk must end at a terminator whose
// footer matches the summed chunk counts, at the end of the file, so the
// count the DirSource hint advertises is exactly what a streaming pass will
// yield (a hostile tail appended to a valid file cannot skew it).
func peekShardFile(path string) (shardDirFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return shardDirFile{}, err
	}
	defer f.Close()
	info, c, err := readShardHeader(f)
	if err != nil {
		return shardDirFile{}, err
	}
	st, err := f.Stat()
	if err != nil {
		return shardDirFile{}, err
	}
	sf := shardDirFile{path: path, info: info, codec: c, size: st.Size()}
	w := walkFrames(f, sf.size, c, info, false)
	switch {
	case !w.sealed:
		return shardDirFile{}, w.err
	case info.NumEdges != unknownEdgeCount && info.NumEdges != w.edges:
		return shardDirFile{}, fmt.Errorf("graph: shard header declares %d edges, chunks hold %d", info.NumEdges, w.edges)
	case w.end != sf.size:
		return shardDirFile{}, fmt.Errorf("graph: %d trailing bytes after shard terminator", sf.size-w.end)
	}
	sf.numEdges = w.edges
	return sf, nil
}

// ByteMeter is implemented by sources that can report the total bytes read
// from underlying storage across every pass opened so far. dnepart uses it
// to report on-disk traffic next to edges/sec — the number that shows
// compressed shards moving fewer bytes for the same stream.
type ByteMeter interface {
	BytesRead() int64
}

type dirSource struct {
	dir      string
	files    []shardDirFile
	numEdges int64
	bytes    atomic.Int64 // storage bytes read across all passes
}

func (s *dirSource) Info() SourceInfo {
	return SourceInfo{
		Name:        "shard-dir:" + s.dir,
		NumVertices: s.files[0].info.NumVertices,
		NumEdges:    s.numEdges,
	}
}

// BytesRead reports storage bytes consumed by this source's streams so far.
func (s *dirSource) BytesRead() int64 { return s.bytes.Load() }

func (s *dirSource) Edges() (EdgeStream, error) {
	return &dirStream{files: s.files, bytes: &s.bytes}, nil
}

// meteredReader counts bytes pulled from the underlying file into both the
// owning source's meter and the package-wide stream counter behind
// dne_stream_bytes_read_total.
type meteredReader struct {
	r io.Reader
	n *atomic.Int64
}

func (mr meteredReader) Read(p []byte) (int, error) {
	n, err := mr.r.Read(p)
	if n > 0 {
		mr.n.Add(int64(n))
		streamBytesRead.Add(int64(n))
	}
	return n, err
}

type dirStream struct {
	files []shardDirFile
	next  int
	f     *os.File
	sr    *ShardReader
	bytes *atomic.Int64
}

func (st *dirStream) Next() ([]uint64, []int64, error) {
	for {
		if st.sr == nil {
			if st.next >= len(st.files) {
				return nil, nil, io.EOF
			}
			f, err := os.Open(st.files[st.next].path)
			if err != nil {
				return nil, nil, err
			}
			sr, err := NewShardReader(meteredReader{r: f, n: st.bytes})
			if err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("%s: %w", st.files[st.next].path, err)
			}
			st.f, st.sr = f, sr
			st.next++
		}
		chunk, err := st.sr.Next()
		if err == io.EOF {
			cerr := st.f.Close()
			st.f, st.sr = nil, nil
			if cerr != nil {
				return nil, nil, cerr
			}
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", st.files[st.next-1].path, err)
		}
		return chunk, nil, nil
	}
}

func (st *dirStream) Close() error {
	if st.f != nil {
		err := st.f.Close()
		st.f, st.sr = nil, nil
		return err
	}
	return nil
}

// ---------------------------------------------------------------------------
// Materialization and counting

// FromSource drains a source into an in-memory Graph, calling check (when
// non-nil) after every chunk so a long materialization stays cancellable.
// It is the transparent-materialization fallback for methods that cannot
// stream; the result is identical to FromPacked over the full stream
// (sorted, deduplicated), so for a canonical source it reproduces the
// original graph exactly.
func FromSource(src Source, check func(seen int64) error) (*Graph, error) {
	info := src.Info()
	st, err := RawSource(src).Edges()
	if err != nil {
		return nil, err
	}
	defer st.Close()
	keys := make([]uint64, 0, binio.Cap(uint64(info.NumEdges)))
	for {
		chunk, _, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		keys = append(keys, chunk...)
		if check != nil {
			if err := check(int64(len(keys))); err != nil {
				return nil, err
			}
		}
	}
	return FromPacked(info.NumVertices, keys), nil
}

// SourceCounts returns the source's exact vertex-id space size and edge
// count, from its hints when both are known and otherwise from one counting
// pass (checking check(edges-seen) periodically for cancellation). Streaming
// methods use it to size dense per-vertex state and stream-length state
// up front; because the counting pass is exact, a method behaves identically
// whether or not the source carried hints.
func SourceCounts(src Source, check func(seen int64) error) (numVertices uint32, numEdges int64, err error) {
	info := src.Info()
	if info.NumVertices > 0 && info.NumEdges > 0 {
		return info.NumVertices, info.NumEdges, nil
	}
	st, err := RawSource(src).Edges()
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	var maxV uint32
	var seen int64
	for {
		chunk, _, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		for _, k := range chunk {
			if v := Vertex(k); v >= maxV {
				maxV = v + 1
			}
		}
		seen += int64(len(chunk))
		if check != nil {
			if err := check(seen); err != nil {
				return 0, 0, err
			}
		}
	}
	if info.NumVertices > 0 {
		maxV = info.NumVertices
	}
	return maxV, seen, nil
}
