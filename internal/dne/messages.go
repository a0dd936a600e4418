package dne

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/graph"
)

// Message tags used by the DNE superstep protocol. A superstep is three
// rounds — select, sync, step — and every machine sends exactly one message
// of each round's tag to every machine (possibly with an empty payload), so
// receivers always know how many messages to expect; payloads are routed
// using the 2D-hash replica sets, so *bytes* still follow the paper's O(√P)
// multicast fan-out. tagResult carries rank 0's verdict on the collected
// result (collectOwnersByKey), the last message of a run.
const (
	tagSelect cluster.Tag = cluster.TagUser + iota
	tagSync
	tagStep
	tagResult
)

// Body kinds of this package's messages on the TCP transport (the 16–31
// block of cluster's kind namespace). Each body's WireSize is the exact
// length of what its AppendWire writes, all fields little-endian; the
// decoders reject any payload AppendWire could not have produced.
const (
	kindSelect uint8 = 16 + iota
	kindSync
	kindStep
	_ // 19 carried the whole-graph driver's index-keyed result
	_ // 20 carried a rank's whole result run, now cluster.GatherKeyed's chunks
)

func init() {
	cluster.RegisterWire(kindSelect, decodeSelect)
	cluster.RegisterWire(kindSync, decodeSync)
	cluster.RegisterWire(kindStep, decodeStep)
}

var errWireShape = errors.New("dne: payload does not have the body's shape")

// appendVPs writes pairs as 8-byte ⟨V u32, P i32⟩ records.
func appendVPs(dst []byte, pairs []vp) []byte {
	for _, x := range pairs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(x.V)|uint64(uint32(x.P))<<32)
	}
	return dst
}

func decodeVPs(p []byte) ([]vp, error) {
	if len(p)%8 != 0 {
		return nil, cluster.ErrWireLength
	}
	pairs := make([]vp, len(p)/8)
	for i := range pairs {
		w := binary.LittleEndian.Uint64(p[8*i:])
		pairs[i] = vp{V: graph.Vertex(w), P: int32(w >> 32)}
	}
	return pairs, nil
}

// vp is a ⟨vertex, partition⟩ pair (the paper's VP/BP elements).
type vp struct {
	V graph.Vertex
	P int32
}

// selectBody carries the expansion vertices multicast to allocators
// (Line 8, Alg. 1 / Line 9, Alg. 4) plus an optional random-seed request
// (getRandomVertex(), Alg. 1 Line 7).
type selectBody struct {
	Pairs    []vp
	SeedReq  bool  // this machine asks the receiver for a random seed vertex
	SeedPart int32 // partition the seed is for
	Cancel   bool  // sender's context is cancelled; abort collectively
}

// WireSize implements cluster.Body: SeedReq u8, Cancel u8, SeedPart i32,
// then the pairs.
func (b selectBody) WireSize() int { return 6 + 8*len(b.Pairs) }

// WireKind implements cluster.WireBody.
func (selectBody) WireKind() uint8 { return kindSelect }

// AppendWire implements cluster.WireBody.
func (b selectBody) AppendWire(dst []byte) []byte {
	dst = append(dst, boolByte(b.SeedReq), boolByte(b.Cancel))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.SeedPart))
	return appendVPs(dst, b.Pairs)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func decodeSelect(p []byte) (cluster.Body, error) {
	if len(p) < 6 || p[0] > 1 || p[1] > 1 {
		return nil, errWireShape
	}
	pairs, err := decodeVPs(p[6:])
	if err != nil {
		return nil, err
	}
	return selectBody{
		Pairs:    pairs,
		SeedReq:  p[0] == 1,
		Cancel:   p[1] == 1,
		SeedPart: int32(binary.LittleEndian.Uint32(p[2:])),
	}, nil
}

// syncBody synchronises newly-added vertex allocation ids among replicas
// (SyncVertexAllocations, Alg. 2 Line 3).
type syncBody struct {
	Pairs []vp
}

// WireSize implements cluster.Body.
func (b syncBody) WireSize() int { return 8 * len(b.Pairs) }

// WireKind implements cluster.WireBody.
func (syncBody) WireKind() uint8 { return kindSync }

// AppendWire implements cluster.WireBody.
func (b syncBody) AppendWire(dst []byte) []byte { return appendVPs(dst, b.Pairs) }

func decodeSync(p []byte) (cluster.Body, error) {
	pairs, err := decodeVPs(p)
	if err != nil {
		return nil, err
	}
	return syncBody{Pairs: pairs}, nil
}

// boundaryItem is one new boundary vertex with this allocator's local Drest
// contribution (Alg. 2 Lines 5–6).
type boundaryItem struct {
	V     graph.Vertex
	Drest int32
}

// stepBody is the one message an allocation process sends every expansion
// process at the end of a superstep. Items are addressed to the receiving
// partition: its new boundary vertices with this allocator's local Drest
// (Alg. 2 Lines 5–6). The edges allocated to it stay where they are — Alg. 2
// Line 7 ships them, but nothing downstream reads more than their number, and
// PerPart already carries that. PerPart and Free are the sender's inputs to
// the termination check (Alg. 1 Lines 14–15) and ride along instead of taking
// two all-gathers of their own: both are final before the message is sent,
// and every receiver sums the same P vectors.
type stepBody struct {
	Items   []boundaryItem
	PerPart []int64 // edges the sender has allocated so far, per owner
	Free    int64   // edges the sender still holds unallocated
}

// WireSize implements cluster.Body: the item count (u32), the items
// (⟨V u32, Drest i32⟩), PerPart (i64 each; its length is what remains) and
// Free (i64).
func (b stepBody) WireSize() int { return 4 + 8*(len(b.Items)+len(b.PerPart)+1) }

// WireKind implements cluster.WireBody.
func (stepBody) WireKind() uint8 { return kindStep }

// AppendWire implements cluster.WireBody.
func (b stepBody) AppendWire(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Items)))
	for _, it := range b.Items {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(it.V)|uint64(uint32(it.Drest))<<32)
	}
	dst = cluster.AppendWords(dst, b.PerPart)
	return binary.LittleEndian.AppendUint64(dst, uint64(b.Free))
}

func decodeStep(p []byte) (cluster.Body, error) {
	if len(p) < 12 || (len(p)-4)%8 != 0 {
		return nil, errWireShape
	}
	nItems := int64(binary.LittleEndian.Uint32(p))
	words := int64(len(p)-4)/8 - 1 // after the count, before Free
	if nItems > words {
		return nil, fmt.Errorf("dne: step body counts %d items in %d words: %w", nItems, words, errWireShape)
	}
	b := stepBody{Items: make([]boundaryItem, nItems)}
	p = p[4:]
	for i := range b.Items {
		w := binary.LittleEndian.Uint64(p[8*i:])
		b.Items[i] = boundaryItem{V: graph.Vertex(w), Drest: int32(w >> 32)}
	}
	p = p[8*nItems:]
	b.PerPart, _ = cluster.DecodeWords[int64](p[:len(p)-8])
	b.Free = int64(binary.LittleEndian.Uint64(p[len(p)-8:]))
	return b, nil
}
