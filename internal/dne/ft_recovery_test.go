package dne

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// genConnector serves one in-process cluster per mesh generation: each
// rank's Connect blocks until all P ranks have asked for the current
// generation, then a fresh cluster is built and shared — the in-process
// analogue of the TCP router's rejoin window. Once any rank's driver has
// returned, no generation can fill any more, and Connect fails, as a dial
// into a window that expires with a rank missing does.
type genConnector struct {
	mu           sync.Mutex
	cond         *sync.Cond
	p            int
	gen, waiting int
	cur          *cluster.Cluster
	left         bool
}

var errMeshGone = errors.New("a rank has left the run; the mesh cannot be rebuilt")

func newGenConnector(p int) *genConnector {
	g := &genConnector{p: p}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// connect returns (generation, cluster) once all P ranks of that generation
// have arrived, or errMeshGone once a rank has left first.
func (g *genConnector) connect() (int, *cluster.Cluster, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	myGen := g.gen
	if g.left {
		return myGen, nil, errMeshGone
	}
	g.waiting++
	if g.waiting == g.p {
		g.cur = cluster.New(g.p)
		g.waiting = 0
		g.gen++
		g.cond.Broadcast()
	} else {
		for g.gen == myGen && !g.left {
			g.cond.Wait()
		}
		if g.gen == myGen {
			return myGen, nil, errMeshGone
		}
	}
	return myGen, g.cur, nil
}

// leave records that a rank's driver has returned.
func (g *genConnector) leave() {
	g.mu.Lock()
	g.left = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

// genFault keys a fault schedule: inject cfg into this rank's communicator
// of this mesh generation.
type genFault struct{ gen, rank int }

// ftRun is what runFTClusterErrs observed: rank 0's result, every rank's
// error, the number of kills that actually fired and the drivers' recovery
// log.
type ftRun struct {
	res   *ShardResult
	errs  []error
	fired int64
	log   string
}

// runFTCluster runs PartitionShardsFT on every rank over in-process
// clusters, injecting the scheduled faults, fails the test unless every
// rank succeeds, and returns rank 0's result, the number of kills that
// actually fired and the drivers' recovery log.
func runFTCluster(t *testing.T, g *graph.Graph, parts int, cfg Config, schedule map[genFault]cluster.FaultConfig) (*ShardResult, int64, string) {
	t.Helper()
	run := runFTClusterErrs(t, g, parts, cfg, schedule)
	for rank, err := range run.errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if run.res == nil {
		t.Fatal("rank 0 returned no result")
	}
	return run.res, run.fired, run.log
}

// runFTClusterErrs is runFTCluster without the verdict: it returns what
// every rank ended with, and fails the test only if a rank is still running
// a minute after the start.
func runFTClusterErrs(t *testing.T, g *graph.Graph, parts int, cfg Config, schedule map[genFault]cluster.FaultConfig) ftRun {
	t.Helper()
	conn := newGenConnector(parts)
	dirs := make([]string, parts)
	for r := range dirs {
		dirs[r] = t.TempDir()
	}
	var fired atomic.Int64
	var mu sync.Mutex
	var result *ShardResult
	var log strings.Builder
	logf := func(format string, args ...any) {
		t.Logf(format, args...)
		mu.Lock()
		fmt.Fprintf(&log, format+"\n", args...)
		mu.Unlock()
	}
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for rank := 0; rank < parts; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer conn.leave()
			ckpt, err := NewCheckpointer(dirs[rank], rank, parts, 1, cfg)
			if err != nil {
				errs[rank] = err
				return
			}
			connect := func(context.Context) (cluster.Comm, error) {
				g, cl, err := conn.connect()
				if err != nil {
					return nil, err
				}
				comm := cl.Node(rank)
				if fc, ok := schedule[genFault{g, rank}]; ok {
					f := cluster.NewFault(comm, fc)
					// Mirror the TCP router's whole-mesh teardown: one dead
					// rank fails every survivor's next blocked receive.
					f.OnKill = func(err error) {
						fired.Add(1)
						cl.FailAll(err)
					}
					return f, nil
				}
				return comm, nil
			}
			res, _, err := PartitionShardsFT(context.Background(), cfg, FTOptions{
				Checkpoint: ckpt,
				Connect:    connect,
				LoadShard: func() (*graph.Shard, error) {
					return graph.ShardsOf(g, parts)[rank], nil
				},
				MaxRestarts: 4,
				Logf:        logf,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			if res != nil {
				mu.Lock()
				result = res
				mu.Unlock()
			}
		}(rank)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("ranks still running a minute after the start: the run hangs")
	}
	mu.Lock()
	defer mu.Unlock()
	return ftRun{res: result, errs: errs, fired: fired.Load(), log: log.String()}
}

// referenceRun is the fault-free shard run: the checksum every recovered
// run must reproduce, plus per-rank op counts for placing precise kills.
func referenceRun(t *testing.T, g *graph.Graph, parts int, cfg Config) (uint64, []uint64) {
	t.Helper()
	shards := graph.ShardsOf(g, parts)
	c := cluster.New(parts)
	ops := make([]uint64, parts)
	var mu sync.Mutex
	var sum uint64
	err := c.Run(func(comm cluster.Comm) error {
		f := cluster.NewFault(comm, cluster.FaultConfig{}) // count ops, inject nothing
		res, _, err := PartitionShards(context.Background(), f, shards[comm.Rank()], cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		ops[comm.Rank()] = f.Ops()
		if res != nil {
			sum = res.Checksum()
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sum, ops
}

func TestFTRecoverySingleKillBitIdentical(t *testing.T) {
	g := gen.RMAT(9, 8, 11)
	const parts = 4
	cfg := DefaultConfig()
	cfg.Seed = 5

	want, ops := referenceRun(t, g, parts, cfg)

	// Kill rank 2 at ~40% of its fault-free op count: mid-superstep-loop,
	// well past the first checkpoint and well before result collection.
	schedule := map[genFault]cluster.FaultConfig{
		{gen: 0, rank: 2}: {KillAtOp: ops[2] * 4 / 10},
	}
	res, fired, _ := runFTCluster(t, g, parts, cfg, schedule)
	if fired == 0 {
		t.Fatal("scheduled kill never fired; the test exercised nothing")
	}
	if got := res.Checksum(); got != want {
		t.Fatalf("recovered checksum %#x != fault-free %#x", got, want)
	}
}

func TestFTRecoveryRepeatedKillsBitIdentical(t *testing.T) {
	g := gen.RMAT(9, 8, 11)
	const parts = 4
	cfg := DefaultConfig()
	cfg.Seed = 5

	want, ops := referenceRun(t, g, parts, cfg)

	// Two successive generations die: rank 1 a quarter of the way through
	// the first mesh, then rank 3 an eighth of a fault-free run's ops into
	// the second, which resumed near that quarter mark and so has about
	// three quarters of them still to do. The third mesh runs to completion.
	schedule := map[genFault]cluster.FaultConfig{
		{gen: 0, rank: 1}: {KillAtOp: ops[1] / 4},
		{gen: 1, rank: 3}: {KillAtOp: ops[3] / 8},
	}
	res, fired, _ := runFTCluster(t, g, parts, cfg, schedule)
	if fired < 2 {
		t.Fatalf("only %d of 2 scheduled kills fired", fired)
	}
	if got := res.Checksum(); got != want {
		t.Fatalf("recovered checksum %#x != fault-free %#x", got, want)
	}
}

func TestFTRecoveryKillBeforeFirstCheckpoint(t *testing.T) {
	// A kill during the very first ops — before any checkpoint exists —
	// negotiates superstep -1 and restarts cleanly from the shards.
	g := gen.RMAT(8, 8, 3)
	const parts = 3
	cfg := DefaultConfig()
	cfg.Seed = 9

	want, _ := referenceRun(t, g, parts, cfg)
	schedule := map[genFault]cluster.FaultConfig{
		{gen: 0, rank: 1}: {KillAtOp: 2},
	}
	res, fired, _ := runFTCluster(t, g, parts, cfg, schedule)
	if fired == 0 {
		t.Fatal("scheduled kill never fired")
	}
	if got := res.Checksum(); got != want {
		t.Fatalf("restarted checksum %#x != fault-free %#x", got, want)
	}
}

// TestFTRecoveryKillInDrainAndAtHandOff places a kill in each of the places
// the end of a run adds: inside a drain superstep, where the partitions
// under their cap expand whole boundaries; at the hand-off, after the last
// superstep, where the ranks gather what each of them swept; and at every
// op of the result collection, on a sending rank and on rank 0. None of
// them has checkpoint state of its own — closing is recomputed from the
// restored partSizes — so each recovery must resume from the superstep
// before the kill and end on the fault-free checksum. The one kill after
// which rank 0 may already hold the whole result is the sender's last op,
// its wait for rank 0's verdict: then rank 0 returns the fault-free result
// and the killed rank, whose mesh cannot be rebuilt without the ranks that
// finished, returns an error. No kill may hang the run.
func TestFTRecoveryKillInDrainAndAtHandOff(t *testing.T) {
	g := gen.RMAT(9, 8, 2)
	const parts, victim = 4, 2
	cfg := DefaultConfig()
	cfg.Seed = 5
	want, ops := referenceRun(t, g, parts, cfg)

	// Where the drain starts and where the loop ends, from a fault-free run
	// driven superstep by superstep.
	drainFrom, steps := 0, 0 // written by rank 0's goroutine only
	owners, trace := stepRun(t, g, parts, cfg, (*machine).finished, func(m *machine) bool {
		closing := isClosing(m)
		if m.rank == 0 {
			if steps++; closing && drainFrom == 0 {
				drainFrom = steps
			}
		}
		return closing
	})
	last := len(trace)
	if got := partition.Checksum(owners); got != want {
		t.Fatalf("stepped run's checksum %#x != fault-free %#x", got, want)
	}
	if drainFrom == 0 || drainFrom == last || trace[last-1] == g.NumEdges() {
		t.Fatalf("drain from superstep %d of %d, %d of %d edges allocated by the loop: this input has no drain or no hand-off to kill in",
			drainFrom, last, trace[last-1], g.NumEdges())
	}

	// The victim's ops, counted back from its last: the wait for rank 0's
	// verdict, the chunk and the count of its result run (in process a run
	// is one chunk), the two ops of the hand-off gather, then 3(P+1) per
	// superstep. Rank 0's, counted back from its last: P−1 verdicts, the
	// receipt of the chunks and of the counts. The FT driver adds one
	// gather (the resume negotiation) in front of what the reference run
	// counted: two ops at a sender, 2(P−1) at rank 0.
	total := ops[victim] + 2
	rootTotal := ops[0] + 2*(parts-1)
	perStep := uint64(3 * (parts + 1))
	const resultDone = -2 // the kill may land after rank 0 holds the result
	kills := []struct {
		name   string
		rank   int
		atOp   uint64
		resume int // the checkpoint every rank holds when the kill lands
	}{
		{"drain", victim, total - 5 - perStep*uint64(last-drainFrom) - perStep/2, drainFrom - 1},
		{"hand-off", victim, total - 4, last - 1},
		{"hand-off receive", victim, total - 3, last - 1},
		{"result count", victim, total - 2, last - 1},
		{"result chunk", victim, total - 1, last - 1},
		{"verdict receive", victim, total, resultDone},
		{"root count receipt", 0, rootTotal - parts, last - 1},
		{"root chunk receipt", 0, rootTotal - parts + 1, last - 1},
		{"root verdict", 0, rootTotal - parts + 2, last - 1},
	}
	// The arithmetic above ends on each rank's last op: one further never fires.
	for _, rank := range []int{victim, 0} {
		past := map[int]uint64{victim: total, 0: rootTotal}[rank] + 1
		if run := runFTClusterErrs(t, g, parts, cfg, map[genFault]cluster.FaultConfig{{gen: 0, rank: rank}: {KillAtOp: past}}); run.fired != 0 {
			t.Fatalf("rank %d ran past op %d: the op arithmetic is off", rank, past-1)
		}
	}
	for _, k := range kills {
		t.Run(k.name, func(t *testing.T) {
			run := runFTClusterErrs(t, g, parts, cfg, map[genFault]cluster.FaultConfig{
				{gen: 0, rank: k.rank}: {KillAtOp: k.atOp},
			})
			if run.fired == 0 {
				t.Fatal("scheduled kill never fired")
			}
			if run.res == nil {
				t.Fatalf("rank 0 returned no result: %v", run.errs[0])
			}
			if got := run.res.Checksum(); got != want {
				t.Fatalf("recovered checksum %#x != fault-free %#x", got, want)
			}
			line := fmt.Sprintf("rank %d restoring checkpoint at superstep %d ", k.rank, last-1)
			if k.resume == resultDone && !strings.Contains(run.log, line) {
				// Rank 0 finished first: the killed rank cannot rejoin.
				if !errors.Is(run.errs[k.rank], errMeshGone) {
					t.Fatalf("rank %d was killed after rank 0 finished, and returned %v", k.rank, run.errs[k.rank])
				}
				return
			}
			for rank, err := range run.errs {
				if err != nil {
					t.Errorf("rank %d: %v", rank, err)
				}
			}
			if k.resume == resultDone {
				return
			}
			if line := fmt.Sprintf("rank %d restoring checkpoint at superstep %d ", k.rank, k.resume); !strings.Contains(run.log, line) {
				t.Errorf("kill at op %d did not land in superstep %d: no %q in the recovery log", k.atOp, k.resume+1, line)
			}
		})
	}
}

// TestFTResumeRestoresTerminationVectors stops a run at a kill, reads the
// checkpoints it left, and resumes from them. The global vectors are no
// longer gathered each superstep but summed from the step messages, so the
// checkpointed copies are checked against what they must equal — partSizes
// the sum of every rank's own allocation counts, freeVec each rank's count
// of unowned edges — and the resumed run, which starts from those copies,
// must finish exactly as the fault-free run does.
func TestFTResumeRestoresTerminationVectors(t *testing.T) {
	g := gen.RMAT(9, 8, 11)
	const parts = 4
	cfg := DefaultConfig()
	cfg.Seed = 5
	want, ops := referenceRun(t, g, parts, cfg)

	dirs := make([]string, parts)
	for r := range dirs {
		dirs[r] = t.TempDir()
	}
	errNoRejoin := errors.New("first mesh only")
	// runMesh runs PartitionShardsFT on every rank over one in-process mesh,
	// with kill injected into rank 2's communicator when kill is set; a
	// second Connect is refused, so a killed mesh ends where it died.
	runMesh := func(kill uint64, loadShard func(rank int) (*graph.Shard, error)) (*ShardResult, []error) {
		cl := cluster.New(parts)
		results := make([]*ShardResult, parts)
		errs := make([]error, parts)
		var wg sync.WaitGroup
		for rank := 0; rank < parts; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				ckpt, err := NewCheckpointer(dirs[rank], rank, parts, 1, cfg)
				if err != nil {
					errs[rank] = err
					return
				}
				connected := false
				results[rank], _, errs[rank] = PartitionShardsFT(context.Background(), cfg, FTOptions{
					Checkpoint: ckpt,
					Connect: func(context.Context) (cluster.Comm, error) {
						if connected {
							return nil, errNoRejoin
						}
						connected = true
						if kill == 0 || rank != 2 {
							return cl.Node(rank), nil
						}
						f := cluster.NewFault(cl.Node(rank), cluster.FaultConfig{KillAtOp: kill})
						f.OnKill = cl.FailAll
						return f, nil
					},
					LoadShard: func() (*graph.Shard, error) { return loadShard(rank) },
					Logf:      t.Logf,
				})
			}(rank)
		}
		wg.Wait()
		return results[0], errs
	}

	_, errs := runMesh(ops[2]/2, func(rank int) (*graph.Shard, error) {
		return graph.ShardsOf(g, parts)[rank], nil
	})
	for rank, err := range errs {
		if !errors.Is(err, errNoRejoin) {
			t.Fatalf("rank %d: killed mesh ended with %v, want the refused rejoin", rank, err)
		}
	}

	// The newest superstep every rank can restore, as the resume negotiates it.
	ckpts := make([]*Checkpointer, parts)
	resume := int64(-1)
	for rank := range ckpts {
		ckpts[rank], _ = NewCheckpointer(dirs[rank], rank, parts, 1, cfg)
		if n := ckpts[rank].Newest(); rank == 0 || n < resume {
			resume = n
		}
	}
	if resume < 1 {
		t.Fatalf("kill at op %d left no common checkpoint past the initial one (newest %d)", ops[2]/2, resume)
	}
	states := make([]*machineCkpt, parts)
	partSizes := make([]int64, parts)
	freeVec := make([]int64, parts)
	for rank := range states {
		st, err := ckpts[rank].LoadState(resume)
		if err != nil {
			t.Fatal(err)
		}
		states[rank] = st
		for q, x := range st.localPerPart {
			partSizes[q] += x
		}
		for _, o := range st.owner {
			if o == -1 {
				freeVec[rank]++
			}
		}
	}
	if sum(partSizes) == 0 || sum(freeVec) == 0 {
		t.Fatalf("superstep %d is not mid-run: %d edges allocated, %d free", resume, sum(partSizes), sum(freeVec))
	}
	for rank, st := range states {
		if !slices.Equal(st.partSizes, partSizes) {
			t.Errorf("rank %d superstep %d: checkpointed partSizes %v, ranks' own counts sum to %v", rank, resume, st.partSizes, partSizes)
		}
		if !slices.Equal(st.freeVec, freeVec) {
			t.Errorf("rank %d superstep %d: checkpointed freeVec %v, ranks hold %v unowned edges", rank, resume, st.freeVec, freeVec)
		}
	}

	res, errs := runMesh(0, func(rank int) (*graph.Shard, error) {
		return nil, errors.New("a resumed run must not reload its shard")
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: resume: %v", rank, err)
		}
	}
	if got := res.Checksum(); got != want {
		t.Fatalf("resumed checksum %#x != fault-free %#x", got, want)
	}
}
