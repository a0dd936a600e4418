package partition

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/distributedne/dne/internal/binio"
)

// Serialization of partitionings. The binary format is the tool-to-tool
// interchange (cmd/dnepart writes it, downstream loaders read it); the text
// format ("edgeIndex owner" per line) matches what the public partitioner
// releases this repo reproduces ship, so results can be diffed against them.

// binMagic identifies the binary partitioning format ("DNP1").
const binMagic = 0x444e5031

// maxParts bounds the header part count: anything above this is a corrupt
// or hostile file, not a plausible partitioning.
const maxParts = 1 << 24

// WriteBinary writes p as: magic, numParts (uint32), numEdges (uint64), then
// one little-endian int32 owner per edge.
func WriteBinary(w io.Writer, p *Partitioning) error {
	bw := binio.NewWriter(w)
	bw.U32(binMagic)
	bw.U32(uint32(p.NumParts))
	bw.U64(uint64(len(p.Owner)))
	binio.Put(bw, p.Owner)
	return bw.Flush()
}

// ReadBinary reads the format written by WriteBinary. The header is treated
// as untrusted: the part count is bounded, preallocation is capped, and
// every owner is range-checked, so a truncated or corrupt file errors
// instead of producing an invalid partitioning.
func ReadBinary(r io.Reader) (*Partitioning, error) {
	br := binio.NewReader(r)
	magic, parts, numEdges := br.U32(), br.U32(), br.U64()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("partition: reading header: %w", err)
	}
	if magic != binMagic {
		return nil, fmt.Errorf("partition: bad magic")
	}
	numParts := int(parts)
	if numParts <= 0 || numParts > maxParts {
		return nil, fmt.Errorf("partition: invalid part count %d", numParts)
	}
	owner := binio.Slab[int32](br, numEdges)
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("partition: reading owners: %w", err)
	}
	for i, o := range owner {
		if o != None && (o < 0 || int(o) >= numParts) {
			return nil, fmt.Errorf("partition: owner %d out of range at edge %d", o, i)
		}
	}
	return &Partitioning{NumParts: numParts, Owner: owner}, nil
}

// WriteText writes "edgeIndex owner" lines preceded by a header comment.
func WriteText(w io.Writer, p *Partitioning) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# parts=%d edges=%d\n", p.NumParts, len(p.Owner)); err != nil {
		return err
	}
	for i, o := range p.Owner {
		if _, err := fmt.Fprintf(bw, "%d %d\n", i, o); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText reads the format written by WriteText. Lines may appear in any
// order; missing edges stay None.
func ReadText(r io.Reader) (*Partitioning, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	numParts, numEdges := 0, int64(-1)
	var p *Partitioning
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if text[0] == '#' {
			// Parse "parts=N edges=M" tokens if present.
			for _, f := range strings.Fields(text[1:]) {
				if v, ok := strings.CutPrefix(f, "parts="); ok {
					n, err := strconv.Atoi(v)
					if err != nil {
						return nil, fmt.Errorf("partition: line %d: %v", line, err)
					}
					numParts = n
				}
				if v, ok := strings.CutPrefix(f, "edges="); ok {
					n, err := strconv.ParseInt(v, 10, 64)
					if err != nil {
						return nil, fmt.Errorf("partition: line %d: %v", line, err)
					}
					numEdges = n
				}
			}
			continue
		}
		if p == nil {
			if numParts <= 0 || numEdges < 0 {
				return nil, fmt.Errorf("partition: line %d: data before '# parts=N edges=M' header", line)
			}
			p = New(numParts, numEdges)
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("partition: line %d: want 'edge owner', got %q", line, text)
		}
		idx, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("partition: line %d: %v", line, err)
		}
		own, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("partition: line %d: %v", line, err)
		}
		if idx < 0 || idx >= numEdges {
			return nil, fmt.Errorf("partition: line %d: edge index %d out of range", line, idx)
		}
		if own != int64(None) && (own < 0 || own >= int64(numParts)) {
			return nil, fmt.Errorf("partition: line %d: owner %d out of range", line, own)
		}
		p.Owner[idx] = int32(own)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("partition: scanning: %w", err)
	}
	if p == nil {
		if numParts <= 0 || numEdges < 0 {
			return nil, fmt.Errorf("partition: empty input")
		}
		p = New(numParts, numEdges)
	}
	return p, nil
}
