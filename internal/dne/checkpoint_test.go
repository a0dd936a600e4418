package dne

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/distributedne/dne/internal/dsa"
)

func testCkpt(t testing.TB, cfg Config) *Checkpointer {
	t.Helper()
	c, err := NewCheckpointer(t.TempDir(), 1, 4, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sampleState(iter int64) *machineCkpt {
	return &machineCkpt{
		iter: iter, seedCur: 3,
		wasted: 5, selections: 9, rng63: 100, rng64: 7, bndPeak: 12,
		partSizes:    []int64{10, 20, 30, 40},
		freeVec:      []int64{1, 2, 3, 4},
		localPerPart: []int64{0, 1, 0, 2},
		owner:        []int32{-1, 0, 3, -1, 2},
		eIdx:         []int32{0, 1, 2, 3, 4, 0},
		aliveLen:     []int32{2, 1},
		partWords:    []uint64{0xdeadbeef, 0x1},
		bndLive:      []dsa.BoundaryEntry{{V: 3, Score: 2}, {V: 9, Score: 5}},
	}
}

func statesEqual(a, b *machineCkpt) bool {
	if a.iter != b.iter ||
		a.seedCur != b.seedCur ||
		a.wasted != b.wasted || a.selections != b.selections ||
		a.rng63 != b.rng63 || a.rng64 != b.rng64 || a.bndPeak != b.bndPeak {
		return false
	}
	eqI64 := func(x, y []int64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	eqI32 := func(x, y []int32) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !eqI64(a.partSizes, b.partSizes) || !eqI64(a.freeVec, b.freeVec) || !eqI64(a.localPerPart, b.localPerPart) {
		return false
	}
	if !eqI32(a.owner, b.owner) || !eqI32(a.eIdx, b.eIdx) || !eqI32(a.aliveLen, b.aliveLen) {
		return false
	}
	if len(a.partWords) != len(b.partWords) {
		return false
	}
	for i := range a.partWords {
		if a.partWords[i] != b.partWords[i] {
			return false
		}
	}
	if len(a.bndLive) != len(b.bndLive) {
		return false
	}
	for i := range a.bndLive {
		if a.bndLive[i] != b.bndLive[i] {
			return false
		}
	}
	return true
}

func TestCheckpointStateRoundtrip(t *testing.T) {
	c := testCkpt(t, DefaultConfig())
	want := sampleState(4)
	if err := c.WriteState(want); err != nil {
		t.Fatal(err)
	}
	got, err := c.LoadState(4)
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(want, got) {
		t.Fatalf("roundtrip mismatch:\nwrote %+v\nread  %+v", want, got)
	}
}

func TestCheckpointBaseRoundtrip(t *testing.T) {
	c := testCkpt(t, DefaultConfig())
	packed := []uint64{1, 2, 3, 1 << 40, 1<<63 - 1}
	if err := c.WriteBase(999, 1234, packed); err != nil {
		t.Fatal(err)
	}
	nv, te, got, err := c.LoadBase()
	if err != nil {
		t.Fatal(err)
	}
	if nv != 999 || te != 1234 || len(got) != len(packed) {
		t.Fatalf("base roundtrip: |V|=%d |E|=%d len=%d", nv, te, len(got))
	}
	for i := range packed {
		if got[i] != packed[i] {
			t.Fatalf("packed[%d] = %d, want %d", i, got[i], packed[i])
		}
	}
}

// TestCheckpointHostileFiles feeds the loader torn, corrupted, and
// mismatched checkpoint files; every one must be rejected with an error, and
// none may panic or return partially-restored state.
func TestCheckpointHostileFiles(t *testing.T) {
	cfg := DefaultConfig()
	otherCfg := cfg
	otherCfg.Seed = cfg.Seed + 1

	cases := []struct {
		name   string
		mutate func(t *testing.T, c *Checkpointer, path string)
	}{
		{"truncated mid-header", func(t *testing.T, c *Checkpointer, path string) {
			truncateFile(t, path, 20)
		}},
		{"truncated mid-payload", func(t *testing.T, c *Checkpointer, path string) {
			truncateFile(t, path, fileSize(t, path)/2)
		}},
		{"missing digest", func(t *testing.T, c *Checkpointer, path string) {
			truncateFile(t, path, fileSize(t, path)-8)
		}},
		{"flipped payload byte", func(t *testing.T, c *Checkpointer, path string) {
			flipByte(t, path, fileSize(t, path)/2)
		}},
		{"flipped digest byte", func(t *testing.T, c *Checkpointer, path string) {
			flipByte(t, path, fileSize(t, path)-1)
		}},
		{"bad magic", func(t *testing.T, c *Checkpointer, path string) {
			flipByte(t, path, 0)
		}},
		{"absurd section count", func(t *testing.T, c *Checkpointer, path string) {
			// Overwrite the first section length (after the 12-word header)
			// with a count that would allocate petabytes if trusted.
			patchU64(t, path, 12*8, 1<<60)
		}},
		{"empty file", func(t *testing.T, c *Checkpointer, path string) {
			truncateFile(t, path, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testCkpt(t, cfg)
			if err := c.WriteState(sampleState(3)); err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, c, c.statePath(3))
			if st, err := c.LoadState(3); err == nil {
				t.Fatalf("hostile file loaded without error: %+v", st)
			}
		})
	}

	t.Run("wrong configuration", func(t *testing.T) {
		dir := t.TempDir()
		c1, _ := NewCheckpointer(dir, 1, 4, 1, cfg)
		if err := c1.WriteState(sampleState(3)); err != nil {
			t.Fatal(err)
		}
		c2, _ := NewCheckpointer(dir, 1, 4, 1, otherCfg)
		if _, err := c2.LoadState(3); err == nil {
			t.Fatal("checkpoint from a different seed was accepted")
		}
		if got := c2.Newest(); got != -1 {
			t.Fatalf("Newest saw a foreign-config checkpoint: %d", got)
		}
	})

	// A version-1 state file (it carried an expanded set, an edge count and
	// claim tags this version has no use for) is refused by its version word,
	// before anything in it is interpreted, and is invisible to Newest.
	t.Run("version 1 file", func(t *testing.T) {
		c := testCkpt(t, cfg)
		if err := c.WriteBase(10, 10, []uint64{1}); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteState(sampleState(3)); err != nil {
			t.Fatal(err)
		}
		patchU64(t, c.statePath(3), 8, 1)
		_, err := c.LoadState(3)
		if err == nil || !strings.Contains(err.Error(), "bad magic/version") {
			t.Fatalf("version-1 state file: %v, want the bad-version error", err)
		}
		if got := c.Newest(); got != -1 {
			t.Fatalf("Newest offers a version-1 checkpoint: %d", got)
		}
	})

	t.Run("superstep filename mismatch", func(t *testing.T) {
		c := testCkpt(t, cfg)
		if err := c.WriteState(sampleState(3)); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(c.statePath(3), c.statePath(7)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.LoadState(7); err == nil {
			t.Fatal("state file renamed to a different superstep was accepted")
		}
	})
}

func truncateFile(t *testing.T, path string, n int64) {
	t.Helper()
	if err := os.Truncate(path, n); err != nil {
		t.Fatal(err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[off] ^= 0xff
	if err := os.WriteFile(path, b, 0o666); err != nil {
		t.Fatal(err)
	}
}

func patchU64(t *testing.T, path string, off int64, v uint64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointPruneKeepsNewestTwo(t *testing.T) {
	c := testCkpt(t, DefaultConfig())
	if err := c.WriteBase(10, 10, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	for s := int64(0); s < 5; s++ {
		if err := c.WriteState(sampleState(s)); err != nil {
			t.Fatal(err)
		}
	}
	matches, err := filepath.Glob(filepath.Join(c.dir, "state-*.dnc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("prune left %d state files, want 2: %v", len(matches), matches)
	}
	if got := c.Newest(); got != 4 {
		t.Fatalf("Newest = %d, want 4", got)
	}
	if _, err := c.LoadState(3); err != nil {
		t.Fatalf("second-newest checkpoint must stay loadable: %v", err)
	}
}

func TestCheckpointNewestRequiresBase(t *testing.T) {
	c := testCkpt(t, DefaultConfig())
	if got := c.Newest(); got != -1 {
		t.Fatalf("empty dir: Newest = %d, want -1", got)
	}
	if err := c.WriteState(sampleState(2)); err != nil {
		t.Fatal(err)
	}
	if got := c.Newest(); got != -1 {
		t.Fatalf("states without a base are unrestorable: Newest = %d, want -1", got)
	}
	if err := c.WriteBase(10, 10, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if got := c.Newest(); got != 2 {
		t.Fatalf("Newest = %d, want 2", got)
	}
}

func TestCountingSourceMatchesBareSource(t *testing.T) {
	// The wrapper must not perturb the stream: seeded runs stay bit-identical
	// to the pre-checkpointing code.
	a := rand.New(rand.NewSource(99))
	b := rand.New(newCountingSource(99))
	for i := 0; i < 1000; i++ {
		if x, y := a.Intn(1000), b.Intn(1000); x != y {
			t.Fatalf("draw %d: bare %d != counted %d", i, x, y)
		}
	}
}

func TestCountingSourceSkipReplaysPosition(t *testing.T) {
	src := newCountingSource(7)
	r := rand.New(src)
	// Mixed draw types: Intn consumes Int63, Uint64 consumes Uint64.
	for i := 0; i < 57; i++ {
		r.Intn(100)
	}
	for i := 0; i < 13; i++ {
		r.Uint64()
	}
	n63, n64 := src.n63, src.n64
	want := make([]int, 20)
	for i := range want {
		want[i] = r.Intn(1 << 20)
	}

	replay := newCountingSource(7)
	replay.skip(n63, n64)
	r2 := rand.New(replay)
	for i := range want {
		if got := r2.Intn(1 << 20); got != want[i] {
			t.Fatalf("draw %d after skip: got %d want %d", i, got, want[i])
		}
	}
}

// TestCheckpointRejectsHugeCounts: a checkpoint with a valid header, its
// run's fingerprint included, whose first section declares 2^28 elements
// over no data must fail on the short read without allocating for the
// declared count — DNB1 and DNC1 alike.
func TestCheckpointRejectsHugeCounts(t *testing.T) {
	cases := []struct {
		name   string
		hdrLen int64
		path   func(c *Checkpointer) string
		write  func(c *Checkpointer) error
		load   func(c *Checkpointer) error
	}{
		{
			name:   "DNB1",
			hdrLen: 7 * 8,
			path:   (*Checkpointer).basePath,
			write:  func(c *Checkpointer) error { return c.WriteBase(10, 10, []uint64{1, 2, 3}) },
			load: func(c *Checkpointer) error {
				_, _, _, err := c.LoadBase()
				return err
			},
		},
		{
			name:   "DNC1",
			hdrLen: 12 * 8,
			path:   func(c *Checkpointer) string { return c.statePath(3) },
			write:  func(c *Checkpointer) error { return c.WriteState(sampleState(3)) },
			load: func(c *Checkpointer) error {
				_, err := c.LoadState(3)
				return err
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testCkpt(t, DefaultConfig())
			if err := tc.write(c); err != nil {
				t.Fatal(err)
			}
			patchU64(t, tc.path(c), tc.hdrLen, 1<<28)
			truncateFile(t, tc.path(c), tc.hdrLen+8)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.load(c)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("a section declaring 2^28 elements over no data was accepted")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
				t.Fatalf("rejecting it allocated %d bytes, over 4 MiB", grew)
			}
		})
	}
}
