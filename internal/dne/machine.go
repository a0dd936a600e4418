package dne

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"github.com/distributedne/dne/internal/bitset"
	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/dsa"
	"github.com/distributedne/dne/internal/graph"
)

// lvp is a ⟨local vertex id, partition⟩ pair: the superstep's own form of
// the paper's VP/BP elements. A pair takes its global id (vp) only where it
// goes on the wire.
type lvp struct {
	L, P int32
}

// vpSet tracks the ⟨local vertex, partition⟩ pairs already seen in one
// superstep: a dense epoch-stamped slab over the local vertices, with a
// partition bitmask per vertex (words words each) that is valid only while
// the vertex's stamp is current, so clearing is O(1) at any partition count.
type vpSet struct {
	set   *dsa.EpochSet
	mask  []uint64
	words int
}

func newVPSet(n, p int) *vpSet {
	w := bitset.WordsFor(p)
	return &vpSet{set: dsa.NewEpochSet(n), mask: make([]uint64, n*w), words: w}
}

func (s *vpSet) clear() { s.set.Clear() }

// add inserts the pair and reports whether it was newly added.
func (s *vpSet) add(x lvp) bool {
	row := s.mask[int(x.L)*s.words : int(x.L+1)*s.words]
	w, bit := x.P>>6, uint64(1)<<uint(x.P&63)
	if s.set.Add(uint32(x.L)) {
		clear(row)
		row[w] = bit
		return true
	}
	if row[w]&bit != 0 {
		return false
	}
	row[w] |= bit
	return true
}

func (s *vpSet) memoryFootprint() int64 {
	return s.set.MemoryFootprint() + int64(len(s.mask))*8
}

// machineInput bundles what one machine's expansion + allocation process
// needs. The subgraph is built by the caller (from a distributed shuffle or
// a checkpoint base), so the superstep loop itself never touches global edge
// arrays.
type machineInput struct {
	sg *subGraph
	// numVertices is the global |V|. Nothing is sized by it: the checkpoint
	// base records it, and a restored boundary is checked against it.
	numVertices uint32
	totalEdges  int64 // global deduplicated |E|
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

// machine is one machine's combined expansion + allocation process (§3.3:
// one expansion process and one allocation process per machine; this
// machine's expansion process computes partition rank).
type machine struct {
	comm cluster.Comm
	cfg  Config
	p    int
	rank int
	gd   grid
	sg   *subGraph
	res  *MachineStats

	// The counting wrapper leaves the seeded stream untouched (bit-identical
	// to a bare source) while letting checkpoints record the draw position.
	src *countingSource
	rng *rand.Rand
	bnd *dsa.Boundary

	totalE   int64 // global deduplicated |E|
	capEdges int64 // ⌊α|E|/P⌋ of Eq. (2), at least 1

	// Global state, refreshed once per superstep from the step messages and
	// identical on every machine.
	partSizes    []int64 // |Eq| for every partition q
	freeVec      []int64 // free (unallocated) edges per machine
	localPerPart []int64 // edges this machine allocated, per owner

	// Per-superstep scratch, allocated once and cleared in O(1) per
	// superstep (epoch bumps and length resets) instead of reallocating
	// maps every superstep. The allocator's side — the pair set seenBP, the
	// two-hop set seenV and the pair lists — is indexed by local vertex id,
	// so it is O(local vertices). The expansion side — the boundary and the
	// merge accumulator (mergedSet, mergedVal) — is indexed by compact id:
	// partition rank's boundary spans every machine's vertices, so a remote
	// vertex gets a compact id in the subgraph's vertex table when a step
	// message first names it (slot), and these slabs grow with the table.
	// Nothing here is sized by the global |V|. The Fig-9 memory accounting
	// in finish charges all of it.
	outPairs    [][]vp
	syncOut     [][]vp
	bItems      [][]boundaryItem
	seenBP      *vpSet        // ⟨v,p⟩ pairs already in the boundary update
	seenV       *dsa.EpochSet // local vertices already two-hop-processed
	mergedSet   *dsa.EpochSet
	mergedVal   []int32  // summed Drest per merged boundary vertex
	mergedOrder []uint32 // compact ids of the merged vertices, first-touch order
	popBuf      []uint32
	allocLocal  []int32
	orderBP     []lvp
	pairs       []lvp // the selections received this superstep, by sender; L is -1 when v has no local edge
	bpBuf       []lvp // one selection's new boundary pairs
	sizesView   []int64
	quota       []int64 // edges this machine may still give each partition this superstep
}

// newMachine sets up the loop state: fresh, with the one collective that
// tells every machine where the free edges are, or restored from in.resume.
func newMachine(comm cluster.Comm, cfg Config, in machineInput, res *MachineStats) (*machine, error) {
	p, rank, nLocal := comm.Size(), comm.Rank(), int(in.sg.nLocal)
	src := newCountingSource(cfg.Seed ^ (int64(rank)+1)*0x9e3779b9)
	m := &machine{
		comm: comm, cfg: cfg, p: p, rank: rank, gd: newGrid(p), sg: in.sg, res: res,
		src: src, rng: rand.New(src), bnd: dsa.NewBoundary(nLocal),
		totalE:       in.totalEdges,
		capEdges:     max(1, int64(cfg.Alpha*float64(in.totalEdges)/float64(p))),
		partSizes:    make([]int64, p),
		freeVec:      make([]int64, p),
		localPerPart: make([]int64, p),
		outPairs:     make([][]vp, p),
		syncOut:      make([][]vp, p),
		bItems:       make([][]boundaryItem, p),
		seenBP:       newVPSet(nLocal, p),
		seenV:        dsa.NewEpochSet(nLocal),
		mergedSet:    dsa.NewEpochSet(nLocal),
		mergedVal:    make([]int32, nLocal),
		sizesView:    make([]int64, p),
		quota:        make([]int64, p),
	}
	st := in.resume
	if st == nil {
		m.freeVec[rank] = m.sg.freeEdges
		m.freeVec = cluster.AllGatherSumVec(comm, m.freeVec)
		return m, nil
	}
	if len(st.partSizes) != p || len(st.freeVec) != p || len(st.localPerPart) != p {
		return nil, fmt.Errorf("dne: checkpoint size vectors sized for %d parts, run has %d", len(st.partSizes), p)
	}
	if err := st.restoreInto(m.sg, m.src); err != nil {
		return nil, err
	}
	// The boundary's vertices take compact ids in ascending global order,
	// not in the order the interrupted run first met them; the pop order
	// depends on the global ids alone.
	for i := range st.bndLive {
		e := &st.bndLive[i]
		if e.V >= in.numVertices {
			return nil, fmt.Errorf("dne: checkpoint boundary vertex %d out of range", e.V)
		}
		e.S = m.slot(e.V)
	}
	m.bnd.Restore(st.bndLive, int(st.bndPeak))
	copy(m.partSizes, st.partSizes)
	copy(m.freeVec, st.freeVec)
	copy(m.localPerPart, st.localPerPart)
	res.WastedSelections = st.wasted
	res.TotalSelections = st.selections
	return m, nil
}

// slot returns global vertex v's compact id, adding v to the vertex table
// on first touch and growing the slabs indexed by compact id with it.
func (m *machine) slot(v graph.Vertex) uint32 {
	c := uint32(m.sg.vt.insert(v))
	if n := len(m.sg.vt.ids); n > m.mergedSet.Len() {
		m.mergedSet.Grow(n)
		m.mergedVal = append(m.mergedVal, make([]int32, n-len(m.mergedVal))...)
		m.bnd.Grow(n)
	}
	return c
}

// runMachine runs one machine's superstep loop to the end, checkpointing at
// superstep boundaries when asked to.
//
// Cancellation is collective: each machine stamps ctx's state onto the
// select messages it already sends to every machine each superstep, and all
// machines abort together at the end of the superstep in which any flag was
// seen. Deciding on received flags (identical on every machine) rather than
// on the racy local ctx keeps the lock-step protocol deadlock-free.
//
// Result collection is the caller's job (collectOwnersByKey), after this
// returns.
func runMachine(ctx context.Context, comm cluster.Comm, cfg Config, in machineInput, res *MachineStats) error {
	m, err := newMachine(comm, cfg, in, res)
	if err != nil {
		return err
	}
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = defaultMaxIterations
	}
	iter := 0
	lastCkpt := int64(-1)
	if in.resume != nil {
		iter = int(in.resume.iter)
		lastCkpt = in.resume.iter
	}
	for {
		// Checkpoint at the superstep boundary: the loop state as of "about
		// to run superstep iter+1". Failures are loud — a run asked to
		// checkpoint must not silently continue without crash protection.
		if in.ckpt != nil && int64(iter) > lastCkpt && iter%in.ckpt.every == 0 {
			if err := in.ckpt.WriteState(m.capture(iter)); err != nil {
				return err
			}
			lastCkpt = int64(iter)
		}
		iter++
		if iter > maxIter {
			return fmt.Errorf("dne: machine %d exceeded %d iterations (|E| allocated: %d/%d)",
				m.rank, maxIter, sum(m.partSizes), m.totalE)
		}
		before := sum(m.partSizes)
		_, closing := m.closing()
		cancelled, err := m.superstep(ctx, closing)
		if err != nil {
			return err
		}
		if cancelled {
			// Every machine received the same flag set, so every machine
			// returns here, at the same superstep boundary.
			if err := ctx.Err(); err != nil {
				return err
			}
			return context.Canceled
		}
		if m.finished(before) {
			break
		}
	}
	m.finish(iter, in)
	return nil
}

// closing reports how many partitions are under their α cap and whether the
// run is closing: the free edges F = |E| − Σ|Eq| fit into the remaining room
// of every one of them, so no order of allocation can overshoot a cap any
// more. It is a function of partSizes alone — identical on every machine,
// recomputed after a resume — and it never turns false again: a superstep
// that gives q some edges shrinks F by at least as much as q's room.
func (m *machine) closing() (under int, closing bool) {
	free := m.totalE - sum(m.partSizes)
	closing = true
	for _, size := range m.partSizes {
		if room := m.capEdges - size; room > 0 {
			under++
			closing = closing && free <= room
		}
	}
	return under, closing && under > 0
}

// superstep runs the three rounds of one superstep: select, sync, step. It
// reports whether any machine asked to cancel. In a closing superstep a
// partition still under its cap drains: it expands its whole boundary, not a
// λ share of it, and asks for no new seed when the boundary is empty.
func (m *machine) superstep(ctx context.Context, closing bool) (cancelled bool, err error) {
	p, rank, sg, comm := m.p, m.rank, m.sg, m.comm

	// ------- Phase A: vertex selection (Alg. 1 L3–7 / Alg. 4) -------
	for q := 0; q < p; q++ {
		m.outPairs[q] = m.outPairs[q][:0]
	}
	seedTo := -1
	// |Ep| of this machine's own partition is partSizes[rank]: allocated
	// edges stay with their allocator (result collection gathers owners,
	// not edges), so only their count travels, in PerPart.
	if m.partSizes[rank] < m.capEdges {
		if m.bnd.Len() > 0 {
			k := 1
			if closing {
				k = m.bnd.Len()
			} else if !m.cfg.SingleExpansion {
				k = max(1, int(math.Ceil(m.cfg.Lambda*float64(m.bnd.Len()))))
			}
			m.popBuf = m.bnd.PopK(k, m.popBuf)
			for _, v := range m.popBuf {
				for _, pr := range m.gd.vertexProcs(v) {
					m.outPairs[pr] = append(m.outPairs[pr], vp{V: v, P: int32(rank)})
				}
			}
		} else if !closing {
			// Random seed (Alg. 1 L7): prefer the local allocation
			// process, fall back to the nearest machine with free edges.
			for off := 0; off < p; off++ {
				if t := (rank + off) % p; m.freeVec[t] > 0 {
					seedTo = t
					break
				}
			}
		}
	}
	wantCancel := ctx.Err() != nil
	for q := 0; q < p; q++ {
		body := selectBody{Pairs: m.outPairs[q], Cancel: wantCancel}
		if q == seedTo {
			body.SeedReq = true
			body.SeedPart = int32(rank)
		}
		comm.Send(q, tagSelect, body)
	}

	// ------- Phase B1: one-hop allocation (Alg. 2 L2, Alg. 3) -------
	for q := 0; q < p; q++ {
		m.bItems[q] = m.bItems[q][:0]
		m.syncOut[q] = m.syncOut[q][:0]
	}
	m.allocLocal = m.allocLocal[:0]
	m.orderBP = m.orderBP[:0]
	m.seenBP.clear()
	// Working view of global |Eq|: last gather plus local increments, the
	// order two-hop allocation prefers partitions in.
	copy(m.sizesView, m.partSizes)
	// The α cap of Eq. (2), exactly: this superstep this machine gives q at
	// most a 1/P share of q's remaining room, plus one so that room below P
	// still fills. One-hop and two-hop allocation draw on the same quota, per
	// edge, so P machines together add at most room + P and |Eq| ≤ cap + P
	// whatever the degrees are.
	for q, size := range m.partSizes {
		m.quota[q] = 0
		if room := m.capEdges - size; room > 0 {
			m.quota[q] = room/int64(p) + 1
		}
	}
	m.pairs = m.pairs[:0]
	for _, msg := range comm.RecvN(tagSelect, p) {
		body := msg.Body.(selectBody)
		for _, x := range body.Pairs {
			m.pairs = append(m.pairs, lvp{L: sg.local(x.V), P: x.P})
		}
		if body.Cancel {
			cancelled = true
		}
		if body.SeedReq {
			if lv, ok := sg.randomSeed(m.rng); ok {
				m.bItems[msg.From] = append(m.bItems[msg.From],
					boundaryItem{V: sg.vt.ids[lv], Drest: sg.drest[lv]})
			}
		}
	}
	m.res.TotalSelections += int64(len(m.pairs))
	for _, pair := range m.pairs {
		if pair.L < 0 {
			m.res.WastedSelections++
			continue
		}
		before := len(m.allocLocal)
		m.bpBuf = sg.allocOneHop(pair.L, pair.P, &m.quota[pair.P], &m.allocLocal, m.bpBuf[:0])
		for _, b := range m.bpBuf {
			if m.seenBP.add(b) {
				m.orderBP = append(m.orderBP, b)
			}
		}
		if len(m.allocLocal) == before {
			m.res.WastedSelections++
		}
		m.sizesView[pair.P] += int64(len(m.allocLocal) - before)
	}

	// ------- Phase B2: replica synchronisation (Alg. 2 L3) -------
	for _, bpPair := range m.orderBP {
		v := sg.vt.ids[bpPair.L]
		for _, pr := range m.gd.vertexProcs(v) {
			if pr != rank {
				m.syncOut[pr] = append(m.syncOut[pr], vp{V: v, P: bpPair.P})
			}
		}
	}
	for q := 0; q < p; q++ {
		comm.Send(q, tagSync, syncBody{Pairs: m.syncOut[q]})
	}
	synced := m.orderBP
	for _, msg := range comm.RecvN(tagSync, p) {
		// Replica synchronisation (Alg. 2 Line 3): v now belongs to p.
		for _, pair := range msg.Body.(syncBody).Pairs {
			lv := sg.local(pair.V)
			if lv < 0 {
				continue
			}
			sg.partSet(lv).Set(int(pair.P))
			x := lvp{L: lv, P: pair.P}
			if m.seenBP.add(x) {
				synced = append(synced, x)
			}
		}
	}
	m.orderBP = synced

	// ------- Phase B3: two-hop allocation (Alg. 2 L4, Alg. 3) -------
	m.seenV.Clear()
	for _, pair := range synced {
		if m.seenV.Add(uint32(pair.L)) {
			sg.allocTwoHop(pair.L, m.sizesView, m.quota, &m.allocLocal)
		}
	}

	// ------- Phase B4: local Drest (Alg. 2 L5–6) -------
	for _, pair := range synced {
		m.bItems[pair.P] = append(m.bItems[pair.P],
			boundaryItem{V: sg.vt.ids[pair.L], Drest: sg.drest[pair.L]})
	}
	// Every selection ⟨v, p⟩ is answered while v still has a free edge here
	// (unless the pair was just reported above): p took v out of its boundary
	// when it selected it, and an expansion that was cut short must come back
	// with its true score, or the rest of v is never offered to p again.
	for _, pair := range m.pairs {
		if pair.L >= 0 && sg.drest[pair.L] > 0 && m.seenBP.add(pair) {
			m.bItems[pair.P] = append(m.bItems[pair.P], boundaryItem{V: sg.vt.ids[pair.L], Drest: sg.drest[pair.L]})
		}
	}
	for _, le := range m.allocLocal {
		m.localPerPart[sg.owner[le]]++
	}
	// localPerPart and sg.freeEdges are final for this superstep. The
	// in-process transport hands localPerPart over by reference; it is
	// next written after two more rounds, which no machine passes before
	// every receiver has summed it below.
	for q := 0; q < p; q++ {
		comm.Send(q, tagStep, stepBody{Items: m.bItems[q], PerPart: m.localPerPart, Free: sg.freeEdges})
	}

	// ------- Phase C: boundary/edge-set update (Alg. 1 L10–13) -------
	// The same messages carry the termination check's inputs: every
	// machine sums the same P vectors of integers, so partSizes and
	// freeVec are identical everywhere without a gather of their own.
	m.mergedSet.Clear()
	m.mergedOrder = m.mergedOrder[:0]
	clear(m.partSizes)
	for _, msg := range comm.RecvN(tagStep, p) {
		body := msg.Body.(stepBody)
		if len(body.PerPart) != p {
			return false, fmt.Errorf("dne: machine %d reports %d partition sizes, run has %d", msg.From, len(body.PerPart), p)
		}
		for _, it := range body.Items {
			c := m.slot(it.V)
			if m.mergedSet.Add(c) {
				m.mergedVal[c] = it.Drest
				m.mergedOrder = append(m.mergedOrder, c)
			} else {
				m.mergedVal[c] += it.Drest
			}
		}
		for q, x := range body.PerPart {
			m.partSizes[q] += x
		}
		m.freeVec[msg.From] = body.Free
	}
	// A merged score is the vertex's global Drest as of this superstep, and
	// Drest only falls: at 0 the vertex has no free edge left anywhere, so it
	// never enters the boundary and leaves it if an older score put it there.
	for _, c := range m.mergedOrder {
		if d := m.mergedVal[c]; d > 0 {
			m.bnd.Update(c, sg.vt.ids[c], d)
		} else {
			m.bnd.Remove(c)
		}
	}
	return cancelled, nil
}

// finished is the termination check (Alg. 1 L14–15) after a superstep that
// started with `before` edges allocated: every edge is allocated; or every
// partition is at its α cap; or the run is closing and the drain has nothing
// more to reach — the superstep allocated nothing, so every boundary of an
// under-cap partition is empty, or a single partition is under its cap, so
// every free edge is going to be its edge whichever way it gets there. The
// last three leave the free edges to the sweep.
func (m *machine) finished(before int64) bool {
	after := sum(m.partSizes)
	if after == m.totalE {
		return true
	}
	under, closing := m.closing()
	return under == 0 || closing && (under == 1 || after == before)
}

// finish sweeps what the loop left and fills in the run's statistics.
func (m *machine) finish(iter int, in machineInput) {
	// The closing hand-off: whatever the drain could not reach goes to the
	// partitions still under their cap. Each machine sweeps its own free
	// edges against its own copy of partSizes; one gather of what each gave
	// whom makes the sizes global again.
	res := m.res
	if sum(m.partSizes) < m.totalE {
		mine := slices.Clone(m.partSizes)
		m.sg.sweepLeftovers(mine, m.capEdges)
		for q := range mine {
			mine[q] -= m.partSizes[q]
		}
		for q, n := range cluster.AllGatherSumVec(m.comm, mine) {
			m.partSizes[q] += n
			res.SweptEdges += n
		}
	}

	// Snapshot communication stats before result collection: the gather the
	// caller performs next is measurement plumbing, not part of the
	// algorithm's traffic.
	res.CommBytes = m.comm.Stats().BytesSent.Load()
	res.CommMsgs = m.comm.Stats().MessagesSent.Load()
	res.Iterations = iter
	res.PartEdges = m.partSizes[m.rank]
	// Peak memory is the max over the run's two phases: the input phase
	// (shard + shuffle buffers, transient) and the expansion phase (subgraph
	// + boundary + scratch slabs; the shard is released after the shuffle).
	expansion := m.sg.memoryFootprint() +
		m.bnd.MemoryFootprint() + m.seenBP.memoryFootprint() + m.seenV.MemoryFootprint() +
		m.mergedSet.MemoryFootprint() + int64(cap(m.mergedVal))*4
	res.MemBytes = max(expansion, in.inputPeakBytes)
}

// collectOwnersByKey ships every machine's (packed edge, owner) pairs to
// rank 0 (cluster.GatherKeyed, in chunks that fit a frame reader's first
// buffer on TCP) and merges the sorted runs there. No global edge indices
// are involved, so it works when no rank ever saw the whole graph. At rank 0
// it returns the complete edge set in ascending canonical order with each
// edge's owner; other ranks return nils.
//
// Rank 0 first checks each received run in one pass (checkResultRun), the
// runs in parallel, then merges keys and owners together in one
// dsa.MergeU64 call; in process the runs are the senders' own slices and
// must not move. A run that is not strictly ascending, whose owners are not
// paired with its keys or lie outside [0, P), or that holds a key of
// another machine's grid cell (which is also how a key sent twice shows) is
// an error, not a silent merge.
//
// The gather ends with rank 0's verdict on the runs, and every other rank
// waits for it: a rank that left as soon as its run was sent could strand
// rank 0 in a transport loss no rejoin can repair, while a rank still
// waiting takes part in the rejoin. A result rank 0 rejects fails every
// rank.
func collectOwnersByKey(comm cluster.Comm, sg *subGraph) ([]uint64, []int32, error) {
	runs, owners := cluster.GatherKeyed(comm, sg.keys, sg.owner)
	if comm.Rank() != 0 {
		if v, ok := comm.Recv(tagResult).Body.(cluster.Int64Body); !ok || v != 1 {
			return nil, nil, errors.New("dne: rank 0 rejected the collected result")
		}
		return nil, nil, nil
	}
	p := comm.Size()
	h := newCellHash(p)
	errs := make([]error, p)
	w := min(runtime.GOMAXPROCS(0), p)
	var wg sync.WaitGroup
	for t := 0; t < w; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for r := t; r < p; r += w {
				errs[r] = checkResultRun(&h, r, runs[r], owners[r])
			}
		}(t)
	}
	wg.Wait()
	verdict := cluster.Int64Body(1)
	var err error
	if i := slices.IndexFunc(errs, func(e error) bool { return e != nil }); i >= 0 {
		verdict, err = 0, errs[i]
	}
	for q := 1; q < p; q++ {
		comm.Send(q, tagResult, verdict)
	}
	if err != nil {
		return nil, nil, err
	}
	keys, owner := dsa.MergeU64(runs, owners)
	return keys, owner, nil
}

// checkResultRun returns an error unless machine from's result run is one a
// run could have produced: as many owners as keys, keys strictly ascending
// and all of the sender's own grid cell, owners in [0, P).
func checkResultRun(h *cellHash, from int, keys []uint64, owner []int32) error {
	if len(keys) != len(owner) {
		return fmt.Errorf("dne: machine %d reports %d keys and %d owners", from, len(keys), len(owner))
	}
	kr := newKeyRouter(h)
	for i, k := range keys {
		if i > 0 && k <= keys[i-1] {
			return fmt.Errorf("dne: machine %d sent keys out of order at %d", from, i)
		}
		if q := kr.owner(k); q != from {
			return fmt.Errorf("dne: machine %d sent edge %#x, which is not at the head of its grid run (machine %d's)", from, k, q)
		}
		if uint32(owner[i]) >= uint32(h.p) {
			return fmt.Errorf("dne: machine %d reports owner %d for edge %#x, outside [0, %d)", from, owner[i], k, h.p)
		}
	}
	return nil
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
