package graph

import (
	"fmt"
	"os"
	"path/filepath"
)

// ReadShardDir loads the shard files in dir (*.esh raw, *.esz compressed,
// mixed freely) whose shard index satisfies keep (nil keeps all), merged
// into one Shard. The file set is validated by scanShardDir (shared with
// DirSource and graphstat): same vertex count, same declared shard count,
// each index present exactly once, the file set complete and the vertex
// claim backed by the edges — so a run cannot silently start from a partial
// or mixed-up shard directory, nor size O(|V|) state from a forged header.
// The scan walks every file's frames with payloads skipped; kept files
// alone are decoded, merging in shard-index order.
func ReadShardDir(dir string, keep func(index, count uint32) bool) (*Shard, error) {
	files, err := scanShardDir(dir)
	if err != nil {
		return nil, err
	}
	merged := &Shard{NumVertices: files[0].info.NumVertices}
	for _, sf := range files {
		if keep != nil && !keep(sf.info.Index, sf.info.Count) {
			continue
		}
		s, err := readShardFile(sf.path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sf.path, err)
		}
		merged.Packed = append(merged.Packed, s.Packed...)
	}
	return merged, nil
}

// readShardFile loads one shard file of either format into memory.
func readShardFile(path string) (*Shard, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readShard(f)
}

// ShardFileName returns the conventional file name of raw shard i of n
// (shard-0000-of-0016.esh), shared by every writer and consumer of shard
// directories; compressed shards take the .esz extension instead.
func ShardFileName(i, n int) string { return rawCodec.fileName(i, n) }

// WriteCanonicalShards stripes g's canonical edge list across count EShard
// files in dir (the ShardsOf layout under the conventional names). Read
// back in shard-index order — DirSource's order — the set replays the
// canonical list exactly, which is what makes streamed partitionings of
// the directory bit-identical to in-memory runs. It is the single writer
// behind gengraph -canonical, the differential tests and the stream
// experiment.
func WriteCanonicalShards(dir string, g *Graph, count int) error {
	return writeCanonicalShards(dir, g, count, rawCodec)
}

// WriteCanonicalShardsCompressed is WriteCanonicalShards in the ESZ1
// format: the same canonical stripes under the *.esz names. Stripes of a
// canonical edge list are sorted by construction, which is exactly what the
// compressed codec requires; read back in index order the set replays the
// same stream, only from far fewer disk bytes.
func WriteCanonicalShardsCompressed(dir string, g *Graph, count int) error {
	return writeCanonicalShards(dir, g, count, zCodec)
}

func writeCanonicalShards(dir string, g *Graph, count int, c *shardCodec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, sh := range ShardsOf(g, count) {
		sw, err := createShardFile(filepath.Join(dir, c.fileName(i, count)), c, ShardInfo{
			NumVertices: sh.NumVertices,
			Index:       uint32(i),
			Count:       uint32(count),
		})
		if err != nil {
			return err
		}
		for _, k := range sh.Packed {
			if err := sw.AppendPacked(k); err != nil {
				sw.Close()
				return err
			}
		}
		if err := sw.Close(); err != nil {
			return err
		}
	}
	return nil
}

// ShardFileStat describes one file of a shard directory for reporting:
// where it is, what it holds, and what that costs on disk. Ratio compares
// the on-disk bytes against the raw 8-byte-per-edge packed encoding (plus
// framing), so a raw EShard file reports ~1× and an ESZ1 file reports its
// real compression factor.
type ShardFileStat struct {
	Path       string
	Index      uint32
	Compressed bool
	Edges      uint64
	DiskBytes  int64
	Ratio      float64 // raw-equivalent bytes / DiskBytes
}

// rawShardBytes is the exact on-disk size of an EShard file holding the
// given packed edges: header + per-chunk 4-byte counts at the standard chunk
// size + 8 bytes per edge + terminator/footer.
func rawShardBytes(edges uint64) int64 {
	chunks := (edges + shardChunkEdges - 1) / shardChunkEdges
	return 28 + int64(chunks)*4 + int64(edges)*8 + 12
}

// ShardDirStats validates dir like DirSource and returns one entry per
// shard file, in index order, with exact decoded edge counts (from the
// frame walk, not the header) and on-disk sizes. graphstat -shard-dir uses
// it to report per-file compression.
func ShardDirStats(dir string) ([]ShardFileStat, error) {
	files, err := scanShardDir(dir)
	if err != nil {
		return nil, err
	}
	stats := make([]ShardFileStat, len(files))
	for i, sf := range files {
		stats[i] = ShardFileStat{
			Path:       sf.path,
			Index:      sf.info.Index,
			Compressed: sf.codec == zCodec,
			Edges:      sf.numEdges,
			DiskBytes:  sf.size,
		}
		if sf.size > 0 {
			stats[i].Ratio = float64(rawShardBytes(sf.numEdges)) / float64(sf.size)
		}
	}
	return stats, nil
}
