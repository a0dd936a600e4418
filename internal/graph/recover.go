package graph

import (
	"encoding/binary"
	"fmt"
	"os"
)

// RecoverShardTail repairs a shard file whose tail was torn by a crash —
// a process SIGKILLed mid-append leaves a valid chunk prefix followed by a
// partial frame and no terminator. The frame walk accepts chunks from the
// start for as long as the reader would accept them (bounded count and
// payload length, complete payload, every edge decoding canonical and in
// range — for ESZ1 also in order, which the per-chunk delta reset makes
// checkable chunk by chunk); at the first bad frame the file is truncated
// back to the end of the last good chunk and resealed with a fresh
// terminator and footer. Junk after a valid terminator is likewise dropped.
//
// On success the file is a fully valid shard holding every edge that was
// durably and correctly written. The returned counts say what happened:
// edges now in the file, and how many tail bytes were discarded (0 means
// the file was already valid and was not modified). The header's declared
// edge count is rewritten to the streaming-unknown sentinel when the tail
// is rewritten, keeping header and contents consistent.
//
// A file whose *header* is unreadable or invalid is not recoverable — there
// is no prefix to salvage — and returns an error.
func RecoverShardTail(path string) (edges uint64, droppedBytes int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	info, c, err := readShardHeader(f)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: unrecoverable shard: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size := st.Size()
	w := walkFrames(f, size, c, info, true)
	if w.sealed && w.end == size && (info.NumEdges == unknownEdgeCount || info.NumEdges == w.edges) {
		// Already a fully valid file (the common, non-crashed case):
		// leave it untouched.
		return w.edges, 0, nil
	}

	// Reseal: drop the torn tail (or the junk after the terminator, or a
	// header count contradicting a valid body), rewrite terminator + footer,
	// and point the header at the footer.
	droppedBytes = size - w.good
	if w.sealed {
		droppedBytes = size - w.end // only junk past the terminator was dropped
	}
	var tail [12]byte
	binary.LittleEndian.PutUint64(tail[4:], w.edges)
	err = unsealShard(f, w.good)
	if err == nil {
		_, err = f.WriteAt(tail[:], w.good)
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		return 0, 0, fmt.Errorf("graph: resealing shard %s: %w", path, err)
	}
	return w.edges, droppedBytes, nil
}
