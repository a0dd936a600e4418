package dne

import (
	"errors"
	"fmt"
	"math/rand"
)

// countingSource wraps the seeded math/rand source and counts every draw, so
// a checkpoint can record the PRNG position and a restore can fast-forward
// to it — the stream itself is untouched, keeping seeded runs bit-identical
// to the pre-checkpointing code.
type countingSource struct {
	src      rand.Source64
	n63, n64 uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source.
func (s *countingSource) Int63() int64 {
	s.n63++
	return s.src.Int63()
}

// Uint64 implements rand.Source64.
func (s *countingSource) Uint64() uint64 {
	s.n64++
	return s.src.Uint64()
}

// Seed implements rand.Source.
func (s *countingSource) Seed(seed int64) { s.src.Seed(seed) }

// skip replays n63 Int63 and n64 Uint64 draws on a freshly-seeded source,
// leaving it at the exact recorded position.
func (s *countingSource) skip(n63, n64 uint64) {
	for i := uint64(0); i < n63; i++ {
		s.src.Int63()
	}
	for i := uint64(0); i < n64; i++ {
		s.src.Uint64()
	}
	s.n63, s.n64 = n63, n64
}

// capture snapshots the superstep loop's mutable state as of "about to run
// superstep iter+1". The slice fields alias the live slabs — WriteState
// streams them out synchronously before the loop mutates anything, so no
// copies are taken.
func (m *machine) capture(iter int) *machineCkpt {
	sg := m.sg
	return &machineCkpt{
		iter: int64(iter), seedCur: int64(sg.seedCur),
		wasted: m.res.WastedSelections, selections: m.res.TotalSelections,
		rng63: m.src.n63, rng64: m.src.n64, bndPeak: int64(m.bnd.Peak()),
		partSizes: m.partSizes, freeVec: m.freeVec, localPerPart: m.localPerPart,
		owner: sg.owner, eIdx: sg.eIdx, aliveLen: sg.aliveLen, partWords: sg.partWords,
		bndLive: m.bnd.Snapshot(),
	}
}

// restoreInto applies a loaded overlay onto a freshly-rebuilt subgraph and
// PRNG; newMachine restores the boundary. Every index read from the file is
// bounds-checked, so a corrupt-but-digest-valid checkpoint errors instead of
// corrupting memory. The derivable state — the target array (which allocTwoHop
// compacts in step with eIdx), the free-degree slab, and the free-edge
// count — is recomputed rather than trusted.
func (st *machineCkpt) restoreInto(sg *subGraph, src *countingSource) error {
	nEdges := len(sg.keys)
	if len(st.owner) != nEdges || len(st.eIdx) != len(sg.eIdx) ||
		len(st.aliveLen) != len(sg.aliveLen) || len(st.partWords) != len(sg.partWords) {
		return errors.New("dne: checkpoint slabs do not match the rebuilt subgraph")
	}
	for _, o := range st.owner {
		if o < -1 || int(o) >= sg.numParts {
			return fmt.Errorf("dne: checkpoint owner %d out of range", o)
		}
	}
	for _, le := range st.eIdx {
		if le < 0 || int(le) >= nEdges {
			return fmt.Errorf("dne: checkpoint edge index %d out of range", le)
		}
	}
	for lv, a := range st.aliveLen {
		if a < 0 || int64(a) > sg.off[lv+1]-sg.off[lv] {
			return fmt.Errorf("dne: checkpoint alive length %d exceeds degree of local vertex %d", a, lv)
		}
	}
	if st.seedCur < 0 || (nEdges > 0 && st.seedCur >= int64(nEdges)) {
		return fmt.Errorf("dne: checkpoint seed cursor %d out of range", st.seedCur)
	}
	copy(sg.owner, st.owner)
	copy(sg.eIdx, st.eIdx)
	copy(sg.aliveLen, st.aliveLen)
	copy(sg.partWords, st.partWords)
	sg.seedCur = int(st.seedCur)
	// Rebuild target to mirror the checkpointed eIdx order slot for slot.
	for lv := 0; lv < int(sg.nLocal); lv++ {
		for s := sg.off[lv]; s < sg.off[lv+1]; s++ {
			a, b := sg.endpoints(int(sg.eIdx[s]))
			if a == int32(lv) {
				sg.target[s] = b
			} else {
				sg.target[s] = a
			}
		}
	}
	clear(sg.drest)
	var free int64
	for le, o := range sg.owner {
		if o != -1 {
			continue
		}
		free++
		lu, lv := sg.endpoints(le)
		sg.drest[lu]++
		sg.drest[lv]++
	}
	sg.freeEdges = free
	src.skip(st.rng63, st.rng64)
	return nil
}
