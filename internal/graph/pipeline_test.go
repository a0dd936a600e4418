package graph

import (
	"errors"
	"io"
	"os"
	"slices"
	"testing"
)

// packedSource is an in-memory Source over packed canonical keys, chunked
// like the shard sources. The slice is not copied.
type packedSource struct {
	numVertices uint32
	keys        []uint64
}

func (s packedSource) Info() SourceInfo {
	return SourceInfo{Name: "test", NumVertices: s.numVertices, NumEdges: int64(len(s.keys))}
}

func (s packedSource) Edges() (EdgeStream, error) {
	return &packedStream{keys: s.keys}, nil
}

type packedStream struct {
	keys []uint64
	pos  int
}

func (st *packedStream) Next() ([]uint64, []int64, error) {
	if st.pos >= len(st.keys) {
		return nil, nil, io.EOF
	}
	n := min(len(st.keys)-st.pos, SourceChunkEdges)
	chunk := st.keys[st.pos : st.pos+n]
	st.pos += n
	return chunk, nil, nil
}

func (st *packedStream) Close() error { return nil }

// countingSource wraps a source and counts how many passes (Edges calls)
// are opened on it.
type countingSource struct {
	inner Source
	opens int
}

func (c *countingSource) Info() SourceInfo { return c.inner.Info() }
func (c *countingSource) Edges() (EdgeStream, error) {
	c.opens++
	return c.inner.Edges()
}

// positionedSource replays keys in chunks that carry explicit raw positions
// (the shape an order decorator emits), chunk edges at a time.
type positionedSource struct {
	keys  []uint64
	pos   []int64
	chunk int
}

func (s positionedSource) Info() SourceInfo {
	return SourceInfo{Name: "positioned", NumEdges: int64(len(s.keys))}
}

func (s positionedSource) Edges() (EdgeStream, error) {
	return &positionedStream{s: s}, nil
}

type positionedStream struct {
	s  positionedSource
	at int
}

func (st *positionedStream) Next() ([]uint64, []int64, error) {
	if st.at >= len(st.s.keys) {
		return nil, nil, io.EOF
	}
	n := min(len(st.s.keys)-st.at, st.s.chunk)
	keys, pos := st.s.keys[st.at:st.at+n], st.s.pos[st.at:st.at+n]
	st.at += n
	return keys, pos, nil
}

func (st *positionedStream) Close() error { return nil }

// failingSource yields good chunks of its inner source, then errBroken.
type failingSource struct {
	Source
	good int
}

var errBroken = errors.New("stream broke")

func (s failingSource) Edges() (EdgeStream, error) {
	st, err := s.Source.Edges()
	if err != nil {
		return nil, err
	}
	return &failingStream{EdgeStream: st, good: s.good}, nil
}

type failingStream struct {
	EdgeStream
	good int
}

func (st *failingStream) Next() ([]uint64, []int64, error) {
	if st.good == 0 {
		return nil, nil, errBroken
	}
	st.good--
	return st.EdgeStream.Next()
}

func drainStream(t *testing.T, src Source) (keys []uint64, pos []int64) {
	t.Helper()
	st, err := src.Edges()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var raw int64
	for {
		ck, cp, err := st.Next()
		if err == io.EOF {
			return keys, pos
		}
		if err != nil {
			t.Fatal(err)
		}
		for j, k := range ck {
			p := raw + int64(j)
			if cp != nil {
				p = cp[j]
			}
			keys = append(keys, k)
			pos = append(pos, p)
		}
		raw += int64(len(ck))
	}
}

// spillDirs lists what the shuffle has left in the temp directory the test
// pointed it at.
func spillDirs(t *testing.T, tmp string) []string {
	t.Helper()
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestPrefetchedTransparent: the decode-ahead decorator must be invisible —
// identical keys and positions, across multiple passes.
func TestPrefetchedTransparent(t *testing.T) {
	base := packedSource{1 << 12, sortedTestKeys(3*SourceChunkEdges+99, 1<<12, 31)}
	pref := Prefetched(base)
	wantK, wantP := drainStream(t, base)
	for pass := 0; pass < 2; pass++ {
		gotK, gotP := drainStream(t, pref)
		if !slices.Equal(gotK, wantK) || !slices.Equal(gotP, wantP) {
			t.Fatalf("pass %d: prefetched stream differs from inner stream", pass)
		}
	}
}

// TestShuffledOrderMatchesDefinition states the emitted order on a
// materialized slice, independently of the spill machinery: for each bucket
// in turn, the stable subsequence of the stream that shuffleBucketOf routes
// there, put through shuffleBucket. It must hold for sequential chunks and
// for chunks that carry their own positions.
func TestShuffledOrderMatchesDefinition(t *testing.T) {
	keys := sortedTestKeys(2*SourceChunkEdges+777, 1<<12, 13)
	seqPos := make([]int64, len(keys))
	revPos := make([]int64, len(keys))
	for i := range keys {
		seqPos[i] = int64(i)
		revPos[i] = int64(len(keys) - 1 - i)
	}
	for _, tc := range []struct {
		name string
		src  Source
		pos  []int64
	}{
		{"sequential", packedSource{1 << 12, keys}, seqPos},
		{"positioned", positionedSource{keys: keys, pos: revPos, chunk: 1000}, revPos},
	} {
		for _, seed := range []int64{7, 1_000_003} {
			var wantK []uint64
			var wantP []int64
			for b := uint32(0); b < ShuffleBuckets; b++ {
				var bk []uint64
				var bp []int64
				for i, k := range keys {
					if shuffleBucketOf(k, seed) == b {
						bk = append(bk, k)
						bp = append(bp, tc.pos[i])
					}
				}
				shuffleBucket(bk, bp, seed, b)
				wantK = append(wantK, bk...)
				wantP = append(wantP, bp...)
			}
			gotK, gotP := drainStream(t, Shuffled(tc.src, seed))
			if !slices.Equal(gotK, wantK) {
				t.Errorf("%s, seed %d: shuffle emits different keys", tc.name, seed)
			}
			if !slices.Equal(gotP, wantP) {
				t.Errorf("%s, seed %d: shuffle emits different positions", tc.name, seed)
			}
		}
	}
}

// TestShuffledOverPrefetched: the stack the stream runner composes emits
// the same order as the shuffle alone, and Unwrap exposes the prefetcher,
// not the raw source, so order-independent passes keep their decode-ahead.
func TestShuffledOverPrefetched(t *testing.T) {
	base := packedSource{1 << 11, sortedTestKeys(20_000, 1<<11, 9)}
	pref := Prefetched(base)
	stack := Shuffled(pref, 42)
	wantK, wantP := drainStream(t, Shuffled(base, 42))
	gotK, gotP := drainStream(t, stack)
	if !slices.Equal(gotK, wantK) || !slices.Equal(gotP, wantP) {
		t.Fatal("shuffle over the prefetcher differs from the shuffle alone")
	}
	if u := stack.(Unwrapper).Unwrap(); u != pref {
		t.Fatalf("Unwrap returned %T, want the prefetched source it was given", u)
	}
	if RawSource(stack) != pref {
		t.Fatal("RawSource looked through the prefetcher")
	}
}

// TestShuffleStreamOpenCounts pins the read amplification of a shuffled
// pass at one: each pass opens the underlying source exactly once.
func TestShuffleStreamOpenCounts(t *testing.T) {
	inner := &countingSource{inner: packedSource{1 << 10, sortedTestKeys(10_000, 1<<10, 3)}}
	sh := Shuffled(inner, 42)
	for pass := 1; pass <= 2; pass++ {
		drainStream(t, sh)
		if inner.opens != pass {
			t.Fatalf("after %d shuffled passes the source was opened %d times", pass, inner.opens)
		}
	}
}

// TestShuffledRemovesSpillDir: a pass leaves nothing in the temp directory
// however it ends — at EOF, abandoned mid-stream, or on an inner-stream
// error — and a fresh pass after an abandoned one still matches.
func TestShuffledRemovesSpillDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	base := packedSource{1 << 12, sortedTestKeys(5*SourceChunkEdges, 1<<12, 17)}
	src := Shuffled(base, 7)

	wantK, _ := drainStream(t, src)
	if left := spillDirs(t, tmp); len(left) != 0 {
		t.Fatalf("after EOF the temp directory holds %v", left)
	}

	st, err := src.Edges()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	if left := spillDirs(t, tmp); len(left) != 1 {
		t.Fatalf("mid-pass the temp directory holds %v, want one spill directory", left)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if left := spillDirs(t, tmp); len(left) != 0 {
		t.Fatalf("after an early Close the temp directory holds %v", left)
	}
	if gotK, _ := drainStream(t, src); !slices.Equal(gotK, wantK) {
		t.Fatal("pass after early close differs")
	}

	st, err = Shuffled(failingSource{Source: base, good: 2}, 7).Edges()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Next(); !errors.Is(err, errBroken) {
		t.Fatalf("Next over a failing source returned %v, want the stream's error", err)
	}
	if left := spillDirs(t, tmp); len(left) != 0 {
		t.Fatalf("after an inner-stream error the temp directory holds %v", left)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
