// Package corpus is the cappedalloc golden corpus: make() sized by decoded
// input must be bounded between decode and allocation. The analyzer runs in
// every package (no deterministic pragma needed) — hostile-input discipline
// is global.
package corpus

import (
	"bufio"
	"encoding/binary"
)

const maxPrealloc = 1 << 20

func uncapped(hdr []byte) []uint64 {
	n := binary.LittleEndian.Uint64(hdr)
	return make([]uint64, n) // want `make sized by a count decoded from input with no bound check`
}

func uncappedDerived(hdr []byte) []byte {
	n := binary.LittleEndian.Uint32(hdr)
	size := int(n) * 8
	return make([]byte, size) // want `make sized by a count decoded from input`
}

func uncappedMap(hdr []byte) map[uint64]bool {
	n := binary.LittleEndian.Uint64(hdr)
	return make(map[uint64]bool, n) // want `make sized by a count decoded from input`
}

func uncappedVarint(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	return make([]byte, n), nil // want `make sized by a count decoded from input`
}

func boundChecked(hdr []byte) ([]uint64, error) {
	n := binary.LittleEndian.Uint64(hdr)
	if n > maxPrealloc {
		n = maxPrealloc
	}
	return make([]uint64, n), nil // ordered comparison bounds n: clean
}

func cappedPreallocIdiom(hdr []byte) []uint64 {
	prealloc := binary.LittleEndian.Uint64(hdr)
	if prealloc > maxPrealloc {
		prealloc = maxPrealloc
	}
	return make([]uint64, 0, prealloc) // the ReadBinary/ReadShard idiom: clean
}

func minLaundered(hdr []byte) []uint64 {
	n := binary.LittleEndian.Uint64(hdr)
	return make([]uint64, min(n, maxPrealloc)) // min() bounds in place: clean
}

func equalityDoesNotSanitize(hdr []byte) []uint64 {
	n := binary.LittleEndian.Uint64(hdr)
	if n == 0 {
		return nil
	}
	return make([]uint64, n) // want `make sized by a count decoded from input`
}

func lenIsNotTainted(payload []byte) []uint64 {
	return make([]uint64, len(payload)/8) // len of real data, not a header claim: clean
}

// The //lint:ordered marker is maprange's alone: it suppresses no cappedalloc finding.
func orderedMarkerIsNoSuppression(hdr []byte) []uint64 {
	n := binary.LittleEndian.Uint64(hdr)
	//lint:ordered trusted self-written scratch file, bounded by writer
	return make([]uint64, n) // want `make sized by a count decoded from input`
}
