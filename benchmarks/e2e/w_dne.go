package main

import (
	"context"
	"fmt"
	"time"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/engine"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/store"
)

// dneTCP is workload dne-tcp-p4: the deployed path. Set-up writes the graph
// as 8 canonical ESZ1 files; a rep starts a router, and 4 rank goroutines
// each read their files, dial the router, and run dne.PartitionShards over
// TCP; rank 0 then builds the serving store from the result.
type dneTCP struct {
	seed  int64
	scale int

	numVertices uint32
	want        []uint64 // the input's canonical edges, ascending
	diskBytes   int64
	checksum    uint64 // of the first rep's owners; every rep must match
}

const (
	tcpRanks  = 4
	tcpShards = 8
)

func (w *dneTCP) setup(_ context.Context, dir string, seed int64) error {
	w.seed = seed
	g := rmat(w.scale, w.seed)
	size, err := writeShards(dir, g, tcpShards)
	if err != nil {
		return err
	}
	w.numVertices, w.want, w.diskBytes, w.checksum = g.NumVertices(), packedEdges(g), size, 0
	return nil
}

func (w *dneTCP) input() inputSizes {
	return inputSizes{Scale: w.scale, Vertices: int64(w.numVertices), Edges: int64(len(w.want)), DiskBytes: w.diskBytes}
}

// rankRun is what one rank did in one rep.
type rankRun struct {
	read, dial, partition time.Duration
	stats                 *dne.MachineStats
	comm                  *timedComm // nil on an untraced rep
	tk                    *track
	result                *dne.ShardResult // rank 0 only
}

func (w *dneTCP) runRank(ctx context.Context, dir, addr string, rank int, tr *tracer, out *rankRun) error {
	out.tk = tr.track(fmt.Sprintf("rank %d", rank))
	defer out.tk.begin(spanRank).end()

	t0 := time.Now()
	s := out.tk.begin(spanShardRead)
	shard, err := graph.ReadShardDir(dir, func(index, _ uint32) bool { return int(index)%tcpRanks == rank })
	s.end()
	if err != nil {
		return err
	}
	out.read = time.Since(t0)

	t0 = time.Now()
	s = out.tk.begin(spanDial)
	node, err := cluster.DialTCPContext(ctx, addr, rank, tcpRanks)
	s.end()
	if err != nil {
		return err
	}
	out.dial = time.Since(t0)

	var comm cluster.Comm = node
	if tr != nil {
		out.comm = newTimedComm(node, out.tk)
		comm = out.comm
	}
	t0 = time.Now()
	s = out.tk.begin(spanPartition)
	out.result, out.stats, err = dne.PartitionShards(ctx, comm, shard, dneConfig(w.seed))
	s.end()
	out.partition = time.Since(t0)
	if err != nil {
		node.Abort()
		return err
	}
	return node.Close()
}

func (w *dneTCP) rep(ctx context.Context, dir string, tr *tracer) (*repResult, error) {
	ranks := make([]rankRun, tcpRanks)
	var st *store.Store
	var build time.Duration
	r, err := timed(func() error {
		// A rank that fails leaves the others waiting for its messages;
		// cancelling the context makes the transport give up.
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		addr, wait, err := cluster.StartRouter("127.0.0.1:0", tcpRanks)
		if err != nil {
			return err
		}
		err = runAll(tcpRanks, func(rank int) error {
			err := w.runRank(ctx, dir, addr, rank, tr, &ranks[rank])
			if err != nil {
				cancel()
			}
			return err
		})
		if err != nil {
			return err
		}
		if err := wait(); err != nil {
			return err
		}
		res := ranks[0].result
		shardEdges := make([][]uint64, tcpRanks)
		for i, k := range res.Keys {
			shardEdges[res.Owner[i]] = append(shardEdges[res.Owner[i]], k)
		}
		t0 := time.Now()
		s := ranks[0].tk.begin("store.BuildFromShards")
		st, err = store.BuildFromShards(w.numVertices, shardEdges)
		s.end()
		build = time.Since(t0)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.ops = 1

	res := ranks[0].result
	q, err := checkPartition(w.numVertices, w.want, res.Keys, res.Owner, tcpRanks)
	if err != nil {
		r.fail(err)
	}
	checkRepeats(r, &w.checksum, ownerChecksum(res.Owner))
	if st.NumEdges() != int64(len(w.want)) || st.NumShards() != tcpRanks {
		r.fail(fmt.Errorf("oracle: store holds %d edges in %d shards", st.NumEdges(), st.NumShards()))
	}

	edges := float64(len(w.want))
	var part, read, dial time.Duration
	var commBytes, memBytes int64
	for i := range ranks {
		part, read, dial = max(part, ranks[i].partition), max(read, ranks[i].read), max(dial, ranks[i].dial)
		commBytes += ranks[i].stats.CommBytes
		memBytes += ranks[i].stats.MemBytes
	}
	steps := float64(ranks[0].stats.Iterations)
	v := r.vals
	v["work_per_s"] = edges / seconds(part)
	v["rf"], v["edge_balance"] = q.rf, q.edgeBalance
	v["partition_edges_per_s"] = edges / seconds(part)
	v["comm_mb"] = float64(commBytes) / mb
	v["graph.shard_read_s"] = seconds(read)
	v["graph.bytes_read_mb"] = float64(w.diskBytes) / mb
	v["graph.disk_bytes_per_edge"] = float64(w.diskBytes) / edges
	v["cluster.dial_s"] = seconds(dial)
	v["dne.partition_s"] = seconds(part)
	v["dne.supersteps"] = steps
	v["dne.us_per_superstep"] = micros(part) / steps
	v["dne.swept_edges"] = float64(ranks[0].stats.SweptEdges)
	v["dne.accounted_mem_bytes_per_edge"] = float64(memBytes) / edges
	v["store.build_s"] = seconds(build)
	if tr != nil {
		commVals(v, ranks)
	}
	return r, nil
}

// commVals derives the cluster and dne time metrics of a traced rep from the
// ranks' spans and wrappers. A rank's compute time is the self time of its
// partition span: what is left of it after sends, receive waits and barrier
// waits, its only children. DNE calls no Barrier today, so barrier waits are
// timed (they would otherwise count as compute) but are no metric.
func commVals(v map[string]float64, ranks []rankRun) {
	var send, recv, compute []float64
	var msgs, proto, coll int64
	for i := range ranks {
		t := ranks[i].tk.totals()
		send = append(send, seconds(t[spanSend].total))
		recv = append(recv, seconds(t[spanRecvWait].total))
		compute = append(compute, seconds(t[spanPartition].self))
		msgs += ranks[i].comm.msgs
		proto += ranks[i].comm.protoBytes
		coll += ranks[i].comm.collBytes
	}
	v["cluster.send_s_max"], v["cluster.send_s_mean"] = maxMean(send)
	v["cluster.recv_wait_s_max"], v["cluster.recv_wait_s_mean"] = maxMean(recv)
	computeMax, computeMean := maxMean(compute)
	v["dne.compute_self_s"] = computeMean
	v["dne.rank_skew"] = computeMax / computeMean
	v["cluster.msgs"] = float64(msgs)
	v["cluster.proto_mb"] = float64(proto) / mb
	v["cluster.coll_mb"] = float64(coll) / mb
	v["cluster.bytes_per_msg"] = float64(proto+coll) / float64(msgs)
}

func maxMean(xs []float64) (mx, mean float64) {
	for _, x := range xs {
		mx = max(mx, x)
		mean += x
	}
	return mx, mean / float64(len(xs))
}

// dneMem is workload dne-mem-p16: DNE at the paper's setting over the
// in-memory transport, then the analytics engine on the result, whose run
// time grows with the replication factor.
type dneMem struct {
	seed  int64
	scale int

	g        *graph.Graph
	want     []uint64
	pagerank []float64      // reference, computed in set-up
	wcc      []graph.Vertex // reference
	checksum uint64
}

const (
	memParts      = 16
	pagerankIters = 10
	pagerankDamp  = 0.85
)

func (w *dneMem) setup(_ context.Context, _ string, seed int64) error {
	w.seed = seed
	w.g = rmat(w.scale, w.seed)
	w.want = packedEdges(w.g)
	w.pagerank = refPageRank(w.g, pagerankIters, pagerankDamp)
	w.wcc = refWCC(w.g)
	w.checksum = 0
	return nil
}

func (w *dneMem) input() inputSizes {
	return inputSizes{Scale: w.scale, Vertices: int64(w.g.NumVertices()), Edges: w.g.NumEdges()}
}

func (w *dneMem) rep(ctx context.Context, _ string, tr *tracer) (*repResult, error) {
	tk := tr.track("main")
	var res *dne.Result
	var eng *engine.Engine
	var pr []float64
	var wcc []graph.Vertex
	var part, build, prTime, wccTime time.Duration
	// stage runs one call into a layer under a span and returns its time.
	stage := func(name string, fn func()) time.Duration {
		t0 := time.Now()
		s := tk.begin(name)
		fn()
		s.end()
		return time.Since(t0)
	}
	r, err := timed(func() error {
		var err error
		part = stage("dne.PartitionCtx", func() { res, err = dne.PartitionCtx(ctx, w.g, memParts, dneConfig(w.seed)) })
		if err != nil {
			return err
		}
		build = stage("engine.New", func() { eng = engine.New(w.g, res.Partitioning) })
		prTime = stage("engine.PageRank", func() { pr = eng.PageRank(pagerankIters, pagerankDamp) })
		wccTime = stage("engine.WCC", func() { wcc = eng.WCC() })
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.ops = 1

	owner := res.Partitioning.Owner
	q, err := checkPartition(w.g.NumVertices(), w.want, w.want, owner, memParts)
	if err != nil {
		r.fail(err)
	}
	checkRepeats(r, &w.checksum, ownerChecksum(owner))
	if err := checkPageRank(pr, w.pagerank); err != nil {
		r.fail(err)
	}
	for v := range w.wcc {
		if wcc[v] != w.wcc[v] {
			r.fail(fmt.Errorf("oracle: WCC labels vertex %d with %d, union-find with %d", v, wcc[v], w.wcc[v]))
			break
		}
	}

	edges := float64(len(w.want))
	steps := float64(res.Iterations)
	v := r.vals
	v["work_per_s"] = edges / seconds(part)
	v["rf"], v["edge_balance"] = q.rf, q.edgeBalance
	v["partition_edges_per_s"] = edges / seconds(part)
	v["comm_mb"] = float64(res.CommBytes) / mb
	v["cluster.msgs"] = float64(res.CommMessages)
	v["cluster.bytes_per_msg"] = float64(res.CommBytes) / float64(res.CommMessages)
	v["dne.partition_s"] = seconds(part)
	v["dne.supersteps"] = steps
	v["dne.us_per_superstep"] = micros(part) / steps
	v["dne.swept_edges"] = float64(res.SweptEdges)
	v["dne.accounted_mem_bytes_per_edge"] = res.MemScore(int64(len(w.want)))
	v["dne.wasted_selection_ratio"] = float64(res.WastedSelections) / float64(res.TotalSelections)
	v["engine.build_s"] = seconds(build)
	v["engine.pagerank_s"] = seconds(prTime)
	v["engine.wcc_s"] = seconds(wccTime)
	v["engine.workload_balance"] = eng.WorkloadBalance()
	return r, nil
}
