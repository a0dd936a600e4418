package dne

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"github.com/distributedne/dne/internal/bitset"
	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/dsa"
	"github.com/distributedne/dne/internal/graph"
)

// vpSet tracks the ⟨vertex, partition⟩ pairs already seen in one superstep.
// For partition counts up to 64 it is a dense epoch-stamped slab (one stamp
// word and one partition bitmask per vertex, cleared in O(1)); beyond that
// it falls back to a reusable map. Both give identical membership answers,
// so the superstep's pair ordering — and therefore the partitioning — does
// not depend on which representation runs.
type vpSet struct {
	set  *dsa.EpochSet
	mask []uint64
	m    map[vp]struct{}
}

func newVPSet(n uint32, p int) *vpSet {
	if p <= 64 {
		return &vpSet{set: dsa.NewEpochSet(int(n)), mask: make([]uint64, n)}
	}
	return &vpSet{m: make(map[vp]struct{})}
}

func (s *vpSet) clear() {
	if s.m != nil {
		clear(s.m)
		return
	}
	s.set.Clear()
}

// add inserts the pair and reports whether it was newly added.
func (s *vpSet) add(x vp) bool {
	if s.m != nil {
		if _, ok := s.m[x]; ok {
			return false
		}
		s.m[x] = struct{}{}
		return true
	}
	bit := uint64(1) << uint(x.P)
	if s.set.Add(x.V) {
		s.mask[x.V] = bit
		return true
	}
	if s.mask[x.V]&bit != 0 {
		return false
	}
	s.mask[x.V] |= bit
	return true
}

func (s *vpSet) memoryFootprint() int64 {
	if s.m != nil {
		return 0 // transient map, sized by the superstep's traffic
	}
	return s.set.MemoryFootprint() + int64(len(s.mask))*8
}

// machineResult is what one machine reports back to the driver.
type machineResult struct {
	iterations int
	swept      int64
	memBytes   int64
	partEdges  int64 // |Ep| of this machine's partition when the superstep loop ended
	commBytes  int64
	commMsgs   int64
	wasted     int64 // selection deliveries that allocated nothing here
	selections int64 // all selection deliveries processed here
}

// machineInput bundles what one machine's expansion + allocation process
// needs. The subgraph is built by the caller (from a distributed shuffle,
// from precomputed buckets, or by scanning a whole graph), so the superstep
// loop itself never touches global edge arrays.
type machineInput struct {
	sg          *subGraph
	numVertices uint32 // global |V| (vertex ids are global everywhere)
	totalEdges  int64  // global deduplicated |E|
	// residentBytes is input memory held for the entire run (the whole-graph
	// path charges the full graph here; the shard path charges nothing — its
	// shard is released after the shuffle).
	residentBytes int64
	// inputPeakBytes is the transient peak of the input phase (shard +
	// shuffle buffers); the reported peak is the max of the two phases.
	inputPeakBytes int64
	// ckpt, when non-nil, persists the loop state every ckpt.every
	// supersteps (at the superstep boundary, before the superstep runs).
	ckpt *Checkpointer
	// resume, when non-nil, is a loaded checkpoint to restart from instead
	// of the initial state. All ranks must agree (negotiated collectively by
	// the fault-tolerant driver): the initial free-edge gather is skipped on
	// resume, so a mixed fresh/resumed mesh would deadlock.
	resume *machineCkpt
}

// runMachine executes one machine's combined expansion + allocation process
// (§3.3: one expansion process and one allocation process per machine; this
// machine's expansion process computes partition `rank`).
//
// Cancellation is collective: each machine stamps ctx's state onto the
// select messages it already sends to every machine each superstep, and all
// machines abort together at the end of the superstep in which any flag was
// seen. Deciding on received flags (identical on every machine) rather than
// on the racy local ctx keeps the lock-step protocol deadlock-free.
//
// Result collection is the caller's job (collectOwnersByIndex or
// collectOwnersByKey), after this returns.
func runMachine(ctx context.Context, comm cluster.Comm, cfg Config, in machineInput, res *machineResult) error {
	p := comm.Size()
	rank := comm.Rank()
	gd := newGrid(p)
	sg := in.sg
	// The counting wrapper leaves the seeded stream untouched (bit-identical
	// to a bare source) while letting checkpoints record the draw position.
	src := newCountingSource(cfg.Seed ^ (int64(rank)+1)*0x9e3779b9)
	rng := rand.New(src)
	bnd := dsa.NewBoundary(int(in.numVertices))

	// replicaProcs resolves a vertex's replica machine set: the grid
	// row ∪ column by default, or all machines under the BroadcastReplicas
	// ablation (DESIGN.md §4.2).
	allProcs := make([]int, p)
	for q := range allProcs {
		allProcs[q] = q
	}
	replicaProcs := func(v graph.Vertex, buf []int) []int {
		if cfg.BroadcastReplicas {
			return allProcs
		}
		return gd.vertexProcs(v, buf)
	}

	totalE := in.totalEdges
	capEdges := int64(cfg.Alpha * float64(totalE) / float64(p))
	if capEdges < 1 {
		capEdges = 1
	}

	// Global state, refreshed once per iteration from the step messages.
	partSizes := make([]int64, p)    // |Eq| for every partition q
	freeVec := make([]int64, p)      // free (unallocated) edges per machine
	localPerPart := make([]int64, p) // edges this machine allocated, per owner

	if in.resume == nil {
		freeVec[rank] = sg.freeEdges
		freeVec = cluster.AllGatherSumVec(comm, freeVec)
	}
	scratch := bitset.New(p)
	var procsBuf []int
	outPairs := make([][]vp, p)
	syncOut := make([][]vp, p)
	bItems := make([][]boundaryItem, p)

	// Per-superstep scratch, allocated once and cleared in O(1) per
	// iteration (epoch bumps and length resets) instead of reallocating
	// maps every superstep. Dense trade-off: each machine holds ~40 bytes
	// per *global* vertex id of resident slabs (boundary, pair set, merge
	// accumulator) — O(1) lookups and zero per-superstep allocation, paid
	// for with O(|P|·|V|) total footprint in the in-process simulation. The
	// Fig-9 memory accounting below charges all of it honestly.
	n := in.numVertices
	seenBP := newVPSet(n, p)         // ⟨v,p⟩ pairs already in the boundary update
	seenV := dsa.NewEpochSet(int(n)) // vertices already two-hop-processed
	mergedSet := dsa.NewEpochSet(int(n))
	mergedVal := make([]int32, n) // summed Drest per merged boundary vertex
	var mergedOrder []graph.Vertex
	var popBuf []uint32
	var allocLocal []int32
	var orderBP []vp
	sizesView := make([]int64, p)
	twoBudget := make([]int64, p)

	done := false // this machine's expansion finished
	iter := 0
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = defaultMaxIterations
	}

	lastCkpt := int64(-1)
	if in.resume != nil {
		st := in.resume
		if len(st.partSizes) != p || len(st.freeVec) != p || len(st.localPerPart) != p {
			return fmt.Errorf("dne: checkpoint size vectors sized for %d parts, run has %d", len(st.partSizes), p)
		}
		if err := st.restoreInto(sg, bnd, src); err != nil {
			return err
		}
		copy(partSizes, st.partSizes)
		copy(freeVec, st.freeVec)
		copy(localPerPart, st.localPerPart)
		done = st.done
		iter = int(st.iter)
		lastCkpt = st.iter
		res.wasted = st.wasted
		res.selections = st.selections
	}

	for {
		// Checkpoint at the superstep boundary: the loop state as of "about
		// to run superstep iter+1". Failures are loud — a run asked to
		// checkpoint must not silently continue without crash protection.
		if in.ckpt != nil && int64(iter) > lastCkpt && iter%in.ckpt.every == 0 {
			st := captureCkpt(iter, done, sg, bnd, src, partSizes, freeVec, localPerPart, res)
			if err := in.ckpt.WriteState(st); err != nil {
				return err
			}
			lastCkpt = int64(iter)
		}
		iter++
		if iter > maxIter {
			return fmt.Errorf("dne: machine %d exceeded %d iterations (|E| allocated: %d/%d)",
				rank, maxIter, sum(partSizes), totalE)
		}

		// ------- Phase A: vertex selection (Alg. 1 L3–7 / Alg. 4) -------
		for q := 0; q < p; q++ {
			outPairs[q] = outPairs[q][:0]
		}
		seedTo := -1
		if !done {
			if bnd.Len() > 0 {
				k := 1
				if !cfg.SingleExpansion {
					k = int(math.Ceil(cfg.Lambda * float64(bnd.Len())))
					if k < 1 {
						k = 1
					}
				}
				budget := capEdges - partSizes[rank]
				popBuf = bnd.PopK(k, budget, popBuf)
				for _, v := range popBuf {
					procsBuf = replicaProcs(v, procsBuf[:0])
					for _, pr := range procsBuf {
						outPairs[pr] = append(outPairs[pr], vp{V: v, P: int32(rank)})
					}
				}
			} else {
				// Random seed (Alg. 1 L7): prefer the local allocation
				// process, fall back to the nearest machine with free edges.
				if freeVec[rank] > 0 {
					seedTo = rank
				} else {
					for off := 1; off < p; off++ {
						t := (rank + off) % p
						if freeVec[t] > 0 {
							seedTo = t
							break
						}
					}
				}
			}
		}
		wantCancel := ctx.Err() != nil
		for q := 0; q < p; q++ {
			body := selectBody{Pairs: outPairs[q], Cancel: wantCancel}
			if q == seedTo {
				body.SeedReq = true
				body.SeedPart = int32(rank)
			}
			comm.Send(q, tagSelect, body)
		}

		// ------- Phase B1: one-hop allocation (Alg. 2 L2, Alg. 3) -------
		for q := 0; q < p; q++ {
			bItems[q] = bItems[q][:0]
			syncOut[q] = syncOut[q][:0]
		}
		allocLocal = allocLocal[:0]
		orderBP = orderBP[:0]
		seenBP.clear()
		// Working view of global |Eq|: last gather plus local increments,
		// used to enforce the α cap within the iteration.
		copy(sizesView, partSizes)
		var pairs []vp
		anyCancel := false
		for _, m := range comm.RecvN(tagSelect, p) {
			body := m.Body.(selectBody)
			pairs = append(pairs, body.Pairs...)
			if body.Cancel {
				anyCancel = true
			}
			if body.SeedReq {
				if v, ok := sg.randomSeed(rng); ok {
					bItems[m.From] = append(bItems[m.From],
						boundaryItem{V: v, Drest: sg.localDrest(v)})
				}
			}
		}
		res.selections += int64(len(pairs))
		for _, pair := range pairs {
			if sizesView[pair.P] >= capEdges {
				continue // partition's budget already exhausted
			}
			before := len(allocLocal)
			for _, b := range sg.allocOneHop(pair.V, pair.P, &allocLocal) {
				if seenBP.add(b) {
					orderBP = append(orderBP, b)
				}
			}
			if len(allocLocal) == before {
				res.wasted++
			}
			sizesView[pair.P] += int64(len(allocLocal) - before)
		}

		// ------- Phase B2: replica synchronisation (Alg. 2 L3) -------
		for _, bpPair := range orderBP {
			procsBuf = replicaProcs(bpPair.V, procsBuf[:0])
			for _, pr := range procsBuf {
				if pr != rank {
					syncOut[pr] = append(syncOut[pr], bpPair)
				}
			}
		}
		for q := 0; q < p; q++ {
			comm.Send(q, tagSync, syncBody{Pairs: syncOut[q]})
		}
		synced := orderBP
		for _, m := range comm.RecvN(tagSync, p) {
			for _, pair := range m.Body.(syncBody).Pairs {
				if sg.applySync(pair.V, pair.P) >= 0 && seenBP.add(pair) {
					synced = append(synced, pair)
				}
			}
		}

		// ------- Phase B3: two-hop allocation (Alg. 2 L4, Alg. 3) -------
		for q := 0; q < p; q++ {
			twoBudget[q] = 0
			if rem := capEdges - partSizes[q]; rem > 0 {
				twoBudget[q] = rem/int64(p) + 1
			}
		}
		seenV.Clear()
		for _, pair := range synced {
			if !seenV.Add(pair.V) {
				continue
			}
			sg.allocTwoHop(pair.V, sizesView, twoBudget, capEdges, scratch, &allocLocal)
		}

		// ------- Phase B4: local Drest + result shipping (Alg. 2 L5–7) -------
		for _, pair := range synced {
			bItems[pair.P] = append(bItems[pair.P],
				boundaryItem{V: pair.V, Drest: sg.localDrest(pair.V)})
		}
		for _, le := range allocLocal {
			localPerPart[sg.owner[le]]++
		}
		// localPerPart and sg.freeEdges are final for this superstep. The
		// in-process transport hands localPerPart over by reference; it is
		// next written after two more rounds, which no machine passes before
		// every receiver has summed it below.
		for q := 0; q < p; q++ {
			comm.Send(q, tagStep, stepBody{Items: bItems[q], PerPart: localPerPart, Free: sg.freeEdges})
		}

		// ------- Phase C: boundary/edge-set update (Alg. 1 L10–13) -------
		// The same messages carry the termination check's inputs: every
		// machine sums the same P vectors of integers, so partSizes and
		// freeVec are identical everywhere without a gather of their own.
		mergedSet.Clear()
		mergedOrder = mergedOrder[:0]
		clear(partSizes)
		for _, m := range comm.RecvN(tagStep, p) {
			body := m.Body.(stepBody)
			if len(body.PerPart) != p {
				return fmt.Errorf("dne: machine %d reports %d partition sizes, run has %d", m.From, len(body.PerPart), p)
			}
			for _, it := range body.Items {
				if mergedSet.Add(it.V) {
					mergedVal[it.V] = it.Drest
					mergedOrder = append(mergedOrder, it.V)
				} else {
					mergedVal[it.V] += it.Drest
				}
			}
			for q, x := range body.PerPart {
				partSizes[q] += x
			}
			freeVec[m.From] = body.Free
		}
		for _, v := range mergedOrder {
			bnd.Update(v, mergedVal[v])
		}

		// ------- Termination check (Alg. 1 L14–15) -------
		if anyCancel {
			// Every machine received the same flag set, so every machine
			// returns here, at the same superstep boundary.
			if err := ctx.Err(); err != nil {
				return err
			}
			return context.Canceled
		}
		allocated := sum(partSizes)
		// |Ep| of this machine's own partition is partSizes[rank]: allocated
		// edges stay with their allocator (result collection gathers owners,
		// not edges), so only their count travels, in PerPart.
		done = partSizes[rank] >= capEdges || allocated == totalE
		if allocated == totalE {
			break
		}
		allDone := true
		for q := 0; q < p; q++ {
			if partSizes[q] < capEdges {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
	}

	// Leftover sweep: only reachable when every partition saturated its α cap
	// while edges remained.
	var swept int64
	if sum(partSizes) < totalE {
		swept = sg.sweepLeftovers(partSizes, scratch)
		swept = cluster.AllGatherSum(comm, swept)
	}

	// Snapshot communication stats before result collection: the gather the
	// caller performs next is measurement plumbing, not part of the
	// algorithm's traffic.
	res.commBytes = comm.Stats().BytesSent.Load()
	res.commMsgs = comm.Stats().MessagesSent.Load()
	res.iterations = iter
	res.swept = swept
	res.partEdges = partSizes[rank]
	// Peak memory is the max over the run's two phases: the input phase
	// (shard + shuffle buffers, transient) and the expansion phase (subgraph
	// + boundary + scratch slabs, plus whatever
	// input stays resident — the whole graph on the legacy path, nothing on
	// the shard path).
	expansion := in.residentBytes + sg.memoryFootprint() +
		bnd.MemoryFootprint() + seenBP.memoryFootprint() + seenV.MemoryFootprint() +
		mergedSet.MemoryFootprint() + int64(len(mergedVal))*4
	res.memBytes = max(expansion, in.inputPeakBytes)
	return nil
}

// collectOwnersByIndex ships every machine's (global edge index, owner)
// pairs to rank 0, which writes them into ownerOut (ignored elsewhere).
// Usable only for subgraphs built with global indices (the whole-graph
// path).
func collectOwnersByIndex(comm cluster.Comm, sg *subGraph, ownerOut []int32) {
	comm.Send(0, tagResult, resultBody{Idx: sg.globalIdx, Owner: sg.owner})
	if comm.Rank() != 0 {
		return
	}
	for _, m := range comm.RecvN(tagResult, comm.Size()) {
		body := m.Body.(resultBody)
		for i, gi := range body.Idx {
			ownerOut[gi] = body.Owner[i]
		}
	}
}

// collectOwnersByKey ships every machine's (packed edge, owner) pairs to
// rank 0 and merges the sorted runs there. No global edge indices are
// involved, so it works when no rank ever saw the whole graph. At rank 0 it
// returns the complete edge set in ascending canonical order with each
// edge's owner; other ranks return nils.
func collectOwnersByKey(comm cluster.Comm, sg *subGraph) ([]uint64, []int32) {
	keys := make([]uint64, len(sg.edges))
	for i, e := range sg.edges {
		keys[i] = graph.PackEdge(e.U, e.V)
	}
	comm.Send(0, tagResult, shardResultBody{Keys: keys, Owner: sg.owner})
	if comm.Rank() != 0 {
		return nil, nil
	}
	p := comm.Size()
	runs := make([][]uint64, 0, p)
	owners := make([][]int32, 0, p)
	total := 0
	for _, m := range comm.RecvN(tagResult, p) {
		body := m.Body.(shardResultBody)
		runs = append(runs, body.Keys)
		owners = append(owners, body.Owner)
		total += len(body.Keys)
	}
	// K-way merge of the per-machine runs (each already ascending; the 2D
	// hash makes them disjoint, so no tie-breaking is needed). A binary
	// min-heap over the run heads keeps the merge O(|E| log P) instead of
	// scanning all P cursors per element.
	outKeys := make([]uint64, 0, total)
	outOwners := make([]int32, 0, total)
	cur := make([]int, len(runs))
	type head struct {
		key uint64
		run int
	}
	heap := make([]head, 0, len(runs))
	push := func(h head) {
		heap = append(heap, h)
		for i := len(heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if heap[parent].key <= heap[i].key {
				break
			}
			heap[parent], heap[i] = heap[i], heap[parent]
			i = parent
		}
	}
	pop := func() head {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < last && heap[l].key < heap[smallest].key {
				smallest = l
			}
			if r < last && heap[r].key < heap[smallest].key {
				smallest = r
			}
			if smallest == i {
				break
			}
			heap[i], heap[smallest] = heap[smallest], heap[i]
			i = smallest
		}
		return top
	}
	for r := range runs {
		if len(runs[r]) > 0 {
			push(head{key: runs[r][0], run: r})
		}
	}
	for len(heap) > 0 {
		h := pop()
		r := h.run
		outKeys = append(outKeys, h.key)
		outOwners = append(outOwners, owners[r][cur[r]])
		cur[r]++
		if cur[r] < len(runs[r]) {
			push(head{key: runs[r][cur[r]], run: r})
		}
	}
	return outKeys, outOwners
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
