package graph

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/distributedne/dne/internal/binio"
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
	var kept []shardDirFile
	total := 0
	for _, sf := range files {
		if keep == nil || keep(sf.info.Index, sf.info.Count) {
			kept, total = append(kept, sf), total+sf.capEdges()
		}
	}
	merged := &Shard{NumVertices: files[0].info.NumVertices, Packed: make([]uint64, 0, total)}
	for _, sf := range kept {
		if merged.Packed, err = appendShardFile(merged.Packed, sf); err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// ReadShardFile decodes the one shard file at path, checked end to end as
// a file of ReadShardDir's directory is, and returns its header and its edges
// in file order. The header's index, count and |V| are checked against
// nothing else: that is the caller's to do.
func ReadShardFile(path string) (ShardInfo, []uint64, error) {
	sf, err := peekShardFile(path)
	if err != nil {
		return ShardInfo{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	keys, err := appendShardFile(make([]uint64, 0, sf.capEdges()), sf)
	return sf.info, keys, err
}

// appendShardFile decodes the edges of the scanned shard file sf onto dst.
func appendShardFile(dst []uint64, sf shardDirFile) ([]uint64, error) {
	f, err := os.Open(sf.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sr, err := NewShardReader(f)
	for err == nil {
		var chunk []uint64
		if chunk, err = sr.Next(); err == nil {
			dst = append(dst, chunk...)
		}
	}
	if err != io.EOF {
		return nil, fmt.Errorf("%s: %w", sf.path, err)
	}
	return dst, nil
}

// ShardFileName returns the conventional file name of raw shard i of n
// (shard-0000-of-0016.esh), shared by every writer and consumer of shard
// directories; CompressedShardFileName is its ESZ1 twin (.esz).
func ShardFileName(i, n int) string { return rawCodec.fileName(i, n) }

// CompressedShardFileName returns the conventional file name of ESZ1 shard
// i of n (shard-0000-of-0016.esz).
func CompressedShardFileName(i, n int) string { return zCodec.fileName(i, n) }

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
		info := ShardInfo{NumVertices: sh.NumVertices, Index: uint32(i), Count: uint32(count)}
		sw, err := createShardFile(filepath.Join(dir, c.fileName(i, count)), c, info)
		if err == nil {
			err = appendAndClose(sw, sh.Packed)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteCompressedShard durably writes keys, ascending packed canonical
// edges, to path as an ESZ1 shard with header info. It goes through
// binio.Replace, so path holds its old contents or all of the new ones,
// fsynced, even across a power cut. It is the one writer of the sorted
// bases a live directory holds.
func WriteCompressedShard(path string, info ShardInfo, keys []uint64) error {
	_, err := binio.Replace(path, func(w io.Writer) error {
		sw, err := NewZShardWriter(w, info)
		if err != nil {
			return err
		}
		return appendAndClose(sw, keys)
	})
	return err
}

// appendAndClose appends keys to sw and closes it. A rejected key stops
// the appends, and Close returns it.
func appendAndClose(sw *ShardWriter, keys []uint64) error {
	for _, k := range keys {
		if sw.AppendPacked(k) != nil {
			break
		}
	}
	return sw.Close()
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
