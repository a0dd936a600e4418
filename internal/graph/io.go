package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/distributedne/dne/internal/binio"
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

// ioPageEdges is the number of edges a DNE1 stream decodes per chunk.
const ioPageEdges = 4096

// WriteBinary writes a compact binary encoding: magic, |V|, |E|, then pairs of
// little-endian uint32 endpoints.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := binio.NewWriter(w)
	bw.U32(binaryMagic)
	bw.U32(g.NumVertices())
	bw.U64(uint64(g.NumEdges()))
	for _, e := range g.Edges() {
		bw.U32(e.U)
		bw.U32(e.V)
	}
	return bw.Flush()
}

// ReadBinary reads the format written by WriteBinary: FromSource over the
// one DNE1 stream BinarySource also reads, so the header is untrusted in
// the same way — the vertex claim must be backed by the declared edges,
// every endpoint is range-checked, and a truncated or corrupt file errors
// instead of producing an invalid graph.
func ReadBinary(r io.Reader) (*Graph, error) {
	st, err := newBinaryStream(io.NopCloser(r))
	if err != nil {
		return nil, err
	}
	return fromStream(SourceInfo{NumVertices: st.numVertices}, st, nil)
}
