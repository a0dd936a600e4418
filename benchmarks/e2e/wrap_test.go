package main

import (
	"context"
	"testing"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	"github.com/distributedne/dne/internal/partition"
)

const testRanks = 4

// partitionOver runs DNE on a scale-10 graph with one goroutine per rank,
// each on the communicator comm returns for it.
func partitionOver(t *testing.T, comm func(rank int) cluster.Comm) (*dne.ShardResult, []*dne.MachineStats) {
	t.Helper()
	shards := graph.ShardsOf(rmat(10, 7), testRanks)
	results := make([]*dne.ShardResult, testRanks)
	stats := make([]*dne.MachineStats, testRanks)
	err := runAll(testRanks, func(rank int) (err error) {
		results[rank], stats[rank], err = dne.PartitionShards(context.Background(), comm(rank), shards[rank], dneConfig(7))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return results[0], stats
}

// checkSameRun fails unless the wrapped run partitioned exactly as the bare
// one did, and the wrappers counted exactly the bytes the transport sent.
func checkSameRun(t *testing.T, bare, wrapped *dne.ShardResult, bareStats, wrappedStats []*dne.MachineStats, comms []*timedComm) {
	t.Helper()
	if a, b := ownerChecksum(bare.Owner), ownerChecksum(wrapped.Owner); a != b {
		t.Errorf("checksum %#x bare, %#x wrapped", a, b)
	}
	for rank := range bareStats {
		if *bareStats[rank] != *wrappedStats[rank] {
			t.Errorf("rank %d stats %+v bare, %+v wrapped", rank, *bareStats[rank], *wrappedStats[rank])
		}
		c := comms[rank]
		if sent := c.Stats().BytesSent.Load(); c.protoBytes+c.collBytes != sent {
			t.Errorf("rank %d: wrapper counted %d bytes, transport sent %d", rank, c.protoBytes+c.collBytes, sent)
		}
		if sent := c.Stats().MessagesSent.Load(); c.msgs != sent {
			t.Errorf("rank %d: wrapper counted %d messages, transport sent %d", rank, c.msgs, sent)
		}
		tot := c.tk.totals()
		if tot[spanSend].count == 0 || tot[spanRecvWait].count == 0 {
			t.Errorf("rank %d: no send or receive spans", rank)
		}
	}
}

func TestTimedCommPassThroughInMemory(t *testing.T) {
	bareCluster := cluster.New(testRanks)
	bare, bareStats := partitionOver(t, bareCluster.Node)

	wrappedCluster := cluster.New(testRanks)
	tr := newTracer("test", 0)
	comms := make([]*timedComm, testRanks)
	for rank := range comms {
		comms[rank] = newTimedComm(wrappedCluster.Node(rank), tr.track("rank"))
	}
	wrapped, wrappedStats := partitionOver(t, func(rank int) cluster.Comm { return comms[rank] })
	checkSameRun(t, bare, wrapped, bareStats, wrappedStats, comms)
}

// dialAll starts a router and connects every rank to it.
func dialAll(t *testing.T) []*cluster.TCPNode {
	t.Helper()
	addr, wait, err := cluster.StartRouter("127.0.0.1:0", testRanks)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*cluster.TCPNode, testRanks)
	err = runAll(testRanks, func(rank int) (err error) {
		nodes[rank], err = cluster.DialTCP(addr, rank, testRanks)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
		if err := wait(); err != nil {
			t.Error(err)
		}
	})
	return nodes
}

func TestTimedCommPassThroughTCP(t *testing.T) {
	bareNodes := dialAll(t)
	bare, bareStats := partitionOver(t, func(rank int) cluster.Comm { return bareNodes[rank] })

	nodes := dialAll(t)
	tr := newTracer("test", 0)
	comms := make([]*timedComm, testRanks)
	for rank := range comms {
		comms[rank] = newTimedComm(nodes[rank], tr.track("rank"))
	}
	wrapped, wrappedStats := partitionOver(t, func(rank int) cluster.Comm { return comms[rank] })
	checkSameRun(t, bare, wrapped, bareStats, wrappedStats, comms)
}

func TestTimedSourcePassThrough(t *testing.T) {
	dir := t.TempDir()
	if _, err := writeShards(dir, rmat(10, 7), 4); err != nil {
		t.Fatal(err)
	}
	partitionDir := func(wrap func(graph.Source) graph.Source) *partition.Result {
		src, err := graph.DirSource(dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := methods.PartitionSource(context.Background(), "hdrf", wrap(src), partition.NewSpec(8, 7))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare := partitionDir(func(s graph.Source) graph.Source { return s })
	times := &sourceTimes{tr: newTracer("test", 0)}
	wrapped := partitionDir(func(s graph.Source) graph.Source { return wrapSource(s, times) })

	if a, b := ownerChecksum(bare.Partitioning.Owner), ownerChecksum(wrapped.Partitioning.Owner); a != b {
		t.Errorf("checksum %#x bare, %#x wrapped", a, b)
	}
	if a, b := bare.Stats.PeakMemBytes, wrapped.Stats.PeakMemBytes; a != b {
		t.Errorf("PeakMemBytes %d bare, %d wrapped", a, b)
	}
	if a, b := bare.Stats.Extra["source_bytes_read"], wrapped.Stats.Extra["source_bytes_read"]; a != b || a == 0 {
		t.Errorf("source_bytes_read %v bare, %v wrapped", a, b)
	}
	if times.passes.Load() < 2 || times.next.Load() <= 0 {
		t.Errorf("wrapper saw %d passes and %d ns in Next", times.passes.Load(), times.next.Load())
	}
}

// An order decorator keeps its Unwrap through the wrapper, and what it
// unwraps to is timed too; a raw source gains no Unwrap.
func TestTimedSourceForwardsUnwrap(t *testing.T) {
	raw := graph.SourceOf(rmat(8, 7))
	times := &sourceTimes{}
	if _, ok := wrapSource(raw, times).(graph.Unwrapper); ok {
		t.Error("wrapped raw source is an Unwrapper")
	}
	w := wrapSource(graph.Shuffled(raw, 1), times)
	u, ok := w.(graph.Unwrapper)
	if !ok {
		t.Fatal("wrapped Shuffled source is no Unwrapper")
	}
	inner, ok := graph.RawSource(w).(*timedSource)
	if !ok || inner.inner != raw || inner.times != times {
		t.Errorf("RawSource gave %T, want the raw source under a timing wrapper", graph.RawSource(w))
	}
	if a, b := w.(interface{ AccountBytes() int64 }).AccountBytes(), graph.Shuffled(raw, 1).(interface{ AccountBytes() int64 }).AccountBytes(); a != b {
		t.Errorf("AccountBytes %d through the wrapper, %d bare", a, b)
	}
	_ = u
}
