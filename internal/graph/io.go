package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list ("u v" per line).
// Lines starting with '#' or '%' are comments. Vertex ids must fit in uint32.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected two fields, got %q", line, text)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		edges = append(edges, Edge{Vertex(u), Vertex(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scanning edge list: %w", err)
	}
	return FromEdges(0, edges), nil
}

// WriteEdgeList writes the graph as a text edge list ("u v" per line).
// Lines are formatted with strconv.AppendUint into a reused buffer rather
// than per-edge Fprintf; on multi-million-edge graphs that removes the
// dominant formatting cost.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 32)
	for _, e := range g.Edges() {
		buf = strconv.AppendUint(buf[:0], uint64(e.U), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(e.V), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// binaryMagic identifies the binary edge-list format.
const binaryMagic = 0x444e4531 // "DNE1"

// maxPrealloc caps slice preallocation driven by untrusted header counts: a
// hostile edge count past this bound grows incrementally and fails on the
// short read instead of attempting a huge up-front allocation.
const maxPrealloc = 1 << 20

// Vertex-claim bounds for untrusted headers (found by FuzzBinarySource): a
// graph is O(|V|) to materialize, so a 16-byte file declaring 4G vertices
// and no edges would otherwise command a multi-GiB adjacency allocation.
// Claims up to maxFreeVertices are always accepted; beyond that the file
// must have paid for the claim with real edge bytes, at most
// maxVerticesPerEdge vertices per edge read. Both bounds are far outside
// anything a legitimate writer produces (gengraph emits |E| ≥ |V|/2; road
// networks sit near |E| ≈ 1.2·|V|).
const (
	maxFreeVertices    = 1 << 20
	maxVerticesPerEdge = 256
)

// VertexClaimOK reports whether a claim of n vertex ids is backed by enough
// edges: up to maxFreeVertices always, beyond that maxVerticesPerEdge per
// edge. Any reader sizing O(|V|) state from untrusted input applies it.
func VertexClaimOK(n, edges uint64) bool {
	return n <= maxFreeVertices || n <= edges*maxVerticesPerEdge
}

// checkVertexClaim validates an untrusted vertex-count claim against the
// number of edges backing it (read from, or declared by, the stream).
func checkVertexClaim(n uint32, edges uint64) error {
	if !VertexClaimOK(uint64(n), edges) {
		return fmt.Errorf("graph: header claims %d vertices but stream holds only %d edges; claim exceeds %d + %d per edge",
			n, edges, maxFreeVertices, maxVerticesPerEdge)
	}
	return nil
}

// ioPageEdges is the number of edges batched per binary read/write (32 KiB).
const ioPageEdges = 4096

// WriteBinary writes a compact binary encoding: magic, |V|, |E|, then pairs of
// little-endian uint32 endpoints, batched into page-sized writes.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:], g.NumVertices())
	binary.LittleEndian.PutUint64(hdr[8:], uint64(g.NumEdges()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 0, ioPageEdges*8)
	for _, e := range g.Edges() {
		buf = binary.LittleEndian.AppendUint32(buf, e.U)
		buf = binary.LittleEndian.AppendUint32(buf, e.V)
		if len(buf) == cap(buf) {
			if _, err := bw.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary reads the format written by WriteBinary. The header is treated
// as untrusted: preallocation is capped, and every endpoint is validated
// against the declared vertex count, so a truncated or corrupt file errors
// instead of producing an invalid graph.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading binary header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic in binary edge list")
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	m := binary.LittleEndian.Uint64(hdr[8:])
	prealloc := m
	if prealloc > maxPrealloc {
		prealloc = maxPrealloc
	}
	edges := make([]Edge, 0, prealloc)
	page := make([]byte, ioPageEdges*8)
	for done := uint64(0); done < m; {
		chunk := uint64(ioPageEdges)
		if rem := m - done; rem < chunk {
			chunk = rem
		}
		b := page[:chunk*8]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", done, err)
		}
		for i := uint64(0); i < chunk; i++ {
			u := binary.LittleEndian.Uint32(b[i*8:])
			v := binary.LittleEndian.Uint32(b[i*8+4:])
			if u >= n || v >= n {
				return nil, fmt.Errorf("graph: edge %d endpoint (%d,%d) out of range [0,%d)",
					done+i, u, v, n)
			}
			edges = append(edges, Edge{u, v})
		}
		done += chunk
	}
	if err := checkVertexClaim(n, uint64(len(edges))); err != nil {
		return nil, err
	}
	return FromEdges(n, edges), nil
}
