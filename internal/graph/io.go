package graph

import (
	"bufio"
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

// Vertex-claim bounds for untrusted headers (found by fuzzing): a graph is
// O(|V|) to materialize, so a tiny file declaring 4G vertices and a handful
// of edges would otherwise command a multi-GiB allocation. Claims up to
// maxFreeVertices are always accepted; beyond that the input must have paid
// for the claim with real edges, at most maxVerticesPerEdge vertices per
// edge. Both bounds are far outside anything a legitimate writer produces
// (gengraph emits |E| ≥ |V|/2; road networks sit near |E| ≈ 1.2·|V|).
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
