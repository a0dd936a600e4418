package graph_test

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

// TestShardBytesPinned pins the exact bytes every shard writer puts on disk:
// canonical raw and compressed stripes of a seeded RMAT, and a raw file
// extended through a create → close → reopen-for-append → close cycle. Any
// change to the header, the chunk framing, either payload codec, the flush
// granularity or the terminator and footer moves a hash. Both stripe sets
// must also stream the identical key sequence through DirSource.
func TestShardBytesPinned(t *testing.T) {
	g := gen.RMAT(12, 8, 42)
	rawDir, zDir := t.TempDir(), t.TempDir()
	if err := graph.WriteCanonicalShards(rawDir, g, 4); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteCanonicalShardsCompressed(zDir, g, 4); err != nil {
		t.Fatal(err)
	}

	keys := make([]uint64, 0, g.NumEdges())
	for _, e := range g.Edges() {
		keys = append(keys, graph.PackEdge(e.U, e.V))
	}
	// The first cycle spills past one chunk; the reopened one adds a
	// partial chunk after the resealed tail.
	appendPath := filepath.Join(t.TempDir(), "log.esh")
	sw, err := graph.CreateShardFile(appendPath, graph.ShardInfo{NumVertices: g.NumVertices(), Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, sw, keys[:10_000])
	if sw, err = graph.OpenShardAppend(appendPath); err != nil {
		t.Fatal(err)
	}
	appendAll(t, sw, keys[10_000:15_000])

	for _, tc := range []struct {
		name  string
		paths []string
		want  string
	}{
		{"raw stripes", dirFiles(t, rawDir), "f1f36086d7209d4bf1515ec2fedaa5e7d9f7c197709349edbad0942f00d8d712"},
		{"compressed stripes", dirFiles(t, zDir), "7f4a7bbc94f184fd00ef2350e56337ba71fb94cf2825aa899c39a262c95c29dd"},
		{"raw append cycle", []string{appendPath}, "ede7407aa90e01716313eb2aa227616cbc42188273e1df9bfd888bc4e28534ae"},
	} {
		h := sha256.New()
		for _, p := range tc.paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte(filepath.Base(p)))
			h.Write(b)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: bytes hash %s, pinned %s", tc.name, got, tc.want)
		}
	}

	raw, z := streamDir(t, rawDir), streamDir(t, zDir)
	if !slices.Equal(raw, keys) || !slices.Equal(z, keys) {
		t.Fatalf("DirSource streams differ: raw %d keys, compressed %d keys, graph %d edges", len(raw), len(z), len(keys))
	}
}

func appendAll(t *testing.T, sw *graph.ShardWriter, keys []uint64) {
	t.Helper()
	for _, k := range keys {
		if err := sw.AppendPacked(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
}

func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(paths)
	return paths
}

func streamDir(t *testing.T, dir string) []uint64 {
	t.Helper()
	src, err := graph.DirSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := src.Edges()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var out []uint64
	for {
		chunk, _, err := st.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, chunk...)
	}
}
