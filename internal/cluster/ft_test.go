package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sendUntilKilled drives non-blocking sends over a fault-wrapped comm until
// the injected kill fires, returning the op count at death (0 = never
// killed). In-process sends never block, so the schedule is evaluated free
// of any cross-rank timing.
func sendUntilKilled(comm Comm, cfg FaultConfig, maxOps int) (killedAt uint64) {
	f := NewFault(comm, cfg)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*ConnLostError); !ok {
				panic(r)
			}
			killedAt = f.Ops()
		}
	}()
	to := (comm.Rank() + 1) % comm.Size()
	for i := 0; i < maxOps; i++ {
		f.Send(to, TagUser, Int64Body(0))
	}
	return 0
}

func TestFaultScheduleIsDeterministic(t *testing.T) {
	// The same (seed, rank) schedule must kill at the same op on every run —
	// that reproducibility is what the recovery tests build on. Different
	// ranks under the same seed must not all die at the same op.
	seeds := []int64{1, 7, 42, 1001}
	for _, seed := range seeds {
		var first []uint64
		for trial := 0; trial < 3; trial++ {
			c := New(3)
			got := make([]uint64, 3)
			var wg sync.WaitGroup
			for rank := 0; rank < 3; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					got[rank] = sendUntilKilled(c.Node(rank), FaultConfig{Seed: seed, KillRate: 0.02}, 100000)
				}(rank)
			}
			wg.Wait()
			for rank, op := range got {
				if op == 0 {
					t.Fatalf("seed %d rank %d: kill never fired in 100000 ops at rate 0.02", seed, rank)
				}
			}
			if trial == 0 {
				first = got
				if first[0] == first[1] && first[1] == first[2] {
					t.Fatalf("seed %d: all ranks killed at the same op %d — schedule ignores rank", seed, first[0])
				}
				continue
			}
			for rank := range got {
				if got[rank] != first[rank] {
					t.Fatalf("seed %d rank %d: trial %d killed at op %d, trial 0 at %d",
						seed, rank, trial, got[rank], first[rank])
				}
			}
		}
	}
}

func TestFaultKillAtOpFiresExactly(t *testing.T) {
	c := New(2)
	var wg sync.WaitGroup
	got := make([]uint64, 2)
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(*ConnLostError); !ok {
						panic(r)
					}
				}
			}()
			comm := c.Node(rank)
			if rank == 1 {
				f := NewFault(comm, FaultConfig{KillAtOp: 5})
				// Propagate to rank 0 so it does not block on the dead peer.
				f.OnKill = func(err error) { c.FailAll(err) }
				defer func() { got[1] = f.Ops() }()
				comm = f
			}
			for i := 0; i < 10; i++ {
				AllGatherSum(comm, int64(i))
			}
		}(rank)
	}
	wg.Wait()
	if got[1] != 5 {
		t.Fatalf("rank 1 killed at op %d, want exactly 5", got[1])
	}
}

func TestFaultMatrixWholeMeshTeardown(t *testing.T) {
	// Matrix of (seed, killed rank): the injected kill is propagated to every
	// rank via FailAll — the in-process mirror of the TCP router's closeAll —
	// and every rank must observe ConnLostError, never hang or corrupt.
	const parts = 4
	for _, seed := range []int64{3, 9, 27} {
		for victim := 0; victim < parts; victim++ {
			c := New(parts)
			var lost atomic.Int64
			var wg sync.WaitGroup
			for rank := 0; rank < parts; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(*ConnLostError); !ok {
								panic(r)
							}
							lost.Add(1)
						}
					}()
					comm := c.Node(rank)
					if rank == victim {
						f := NewFault(comm, FaultConfig{Seed: seed, KillAtOp: 10 + uint64(seed)})
						f.OnKill = func(err error) { c.FailAll(err) }
						comm = f
					}
					for i := 0; i < 100; i++ {
						AllGatherSum(comm, int64(i))
					}
				}(rank)
			}
			wg.Wait()
			if got := lost.Load(); got != parts {
				t.Fatalf("seed %d victim %d: %d/%d ranks observed the teardown", seed, victim, got, parts)
			}
		}
	}
}

func TestFaultDelaysPreserveResults(t *testing.T) {
	// Injected delays reorder timing but not semantics: collectives still
	// produce exact results.
	const parts = 3
	c := New(parts)
	var wg sync.WaitGroup
	errs := make([]error, parts)
	for rank := 0; rank < parts; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			f := NewFault(c.Node(rank), FaultConfig{Seed: 11, DelayRate: 0.3, MaxDelay: 2 * time.Millisecond})
			for i := 0; i < 20; i++ {
				if sum := AllGatherSum(f, int64(rank)); sum != 3 {
					errs[rank] = errors.New("wrong sum under delay injection")
					return
				}
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestDialRetrySurvivesInjectedFailures(t *testing.T) {
	addr, wait, err := StartRouter("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	fc := FaultConfig{Seed: 5, DialFailRate: 1, MaxDialFails: 3}
	pol := RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			retries := 0
			p := pol
			p.OnRetry = func(int, error) { retries++ }
			node, err := DialTCPRetry(context.Background(), addr, rank, 2,
				p, DialOptions{Dial: fc.Dialer(rank)})
			if err != nil {
				errs[rank] = err
				return
			}
			if sum := AllGatherSum(node, int64(rank)); sum != 1 {
				errs[rank] = errors.New("wrong sum after retried dial")
			}
			if retries < 3 {
				errs[rank] = errors.New("expected at least 3 retries against the failing dialer")
			}
			node.Close()
		}(rank)
	}
	wg.Wait()
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// TestRetryBackoffJitterIsNonNegative pins backoff's documented range,
// [delay, 1.5·delay), for every attempt of a long policy and several seeds:
// a worker's minimum wait for a router is the sum of the un-jittered delays.
func TestRetryBackoffJitterIsNonNegative(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		p := RetryPolicy{MaxAttempts: 60, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second, Seed: seed}
		d := p.BaseDelay
		for i := 0; i < p.MaxAttempts; i++ {
			if got := p.backoff(i); got < d || got >= d+d/2 {
				t.Fatalf("seed %d attempt %d: backoff %v outside [%v, %v)", seed, i, got, d, d+d/2)
			}
			d = min(2*d, p.MaxDelay)
		}
	}
}

func TestDialRetryGivesUp(t *testing.T) {
	fc := FaultConfig{Seed: 5, DialFailRate: 1} // every attempt fails
	_, err := DialTCPRetry(context.Background(), "127.0.0.1:1", 0, 2,
		RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		DialOptions{Dial: fc.Dialer(0)})
	if err == nil {
		t.Fatal("dial against a permanently failing dialer succeeded")
	}
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("error should wrap the last attempt's cause, got: %v", err)
	}
}

// tcpGeneration runs one mesh generation: every live rank dials with retry
// and runs fn; the rank listed in abortAt aborts its connection at the given
// collective round, and every other rank is expected to observe the loss.
func TestTCPRejoinResumesCollectives(t *testing.T) {
	const size = 3
	addr, wait, err := StartRouterOpts("127.0.0.1:0", size, RouterOptions{
		MaxRejoins:   2,
		RejoinWindow: 10 * time.Second,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	pol := RetryPolicy{MaxAttempts: 50, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	var wg sync.WaitGroup
	errs := make([]error, size)
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = func() error {
				// Generation 0: all ranks join, run one collective, then rank 1
				// crashes (Abort = close without Bye).
				node, err := DialTCPRetry(context.Background(), addr, rank, size, pol, DialOptions{})
				if err != nil {
					return err
				}
				lost := func() (lost bool) {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(*ConnLostError); !ok {
								panic(r)
							}
							lost = true
						}
					}()
					for i := 0; ; i++ {
						if sum := AllGatherSum(node, int64(rank)); sum != 3 {
							return false
						}
						if rank == 1 && i == 0 {
							node.Abort()
							return true
						}
					}
				}()
				if !lost {
					return errors.New("never observed the generation-0 teardown")
				}
				node.Abort()
				// Generation 1: every rank re-dials — the crashed rank's
				// restart and the survivors' rejoin look identical.
				node, err = DialTCPRetry(context.Background(), addr, rank, size, pol, DialOptions{})
				if err != nil {
					return err
				}
				for i := 0; i < 5; i++ {
					if sum := AllGatherSum(node, int64(rank)); sum != 3 {
						return errors.New("wrong sum after rejoin")
					}
				}
				return node.Close()
			}()
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if globalFT.meshRebuilds.Load() == 0 {
		t.Error("mesh rebuild counter never moved")
	}
}

func TestTCPConcurrentTeardownNoDeadlock(t *testing.T) {
	// Several ranks abort at once mid-collective; the router must tear the
	// mesh down and every surviving rank must observe ConnLostError promptly
	// (no wedged goroutines) — run under -race in CI.
	const size = 4
	addr, wait, err := StartRouterOpts("127.0.0.1:0", size, RouterOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	outcomes := make([]string, size)
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			node, err := DialTCP(addr, rank, size)
			if err != nil {
				outcomes[rank] = err.Error()
				return
			}
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(*ConnLostError); !ok {
						panic(r)
					}
					outcomes[rank] = "lost"
					node.Abort()
				}
			}()
			if sum := AllGatherSum(node, 1); sum != size {
				outcomes[rank] = "bad sum"
				return
			}
			if rank%2 == 1 {
				node.Abort() // ranks 1 and 3 crash simultaneously
				outcomes[rank] = "aborted"
				return
			}
			// Survivors block in the next collective until the teardown.
			AllGatherSum(node, 1)
			outcomes[rank] = "completed"
		}(rank)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("teardown deadlocked")
	}
	if err := wait(); err == nil {
		t.Error("router reported success despite aborted ranks")
	}
	for rank := 0; rank < size; rank += 2 {
		if outcomes[rank] != "lost" {
			t.Errorf("surviving rank %d: %q, want lost", rank, outcomes[rank])
		}
	}
}

func TestRouterHeartbeatTimeoutKillsSilentPeer(t *testing.T) {
	// A worker that holds its connection open but never sends (wedged) must
	// be detected by the router's read deadline and the mesh torn down.
	const size = 2
	addr, wait, err := StartRouterOpts("127.0.0.1:0", size, RouterOptions{
		HeartbeatTimeout: 300 * time.Millisecond,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	hb := DialOptions{HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: 300 * time.Millisecond}
	var wg sync.WaitGroup
	var healthyLost atomic.Bool
	wg.Add(2)
	go func() { // rank 0: heartbeats, blocks on a receive that never comes
		defer wg.Done()
		node, err := DialTCPOpts(context.Background(), addr, 0, size, hb)
		if err != nil {
			t.Error(err)
			return
		}
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*ConnLostError); !ok {
					panic(r)
				}
				healthyLost.Store(true)
				node.Abort()
			}
		}()
		node.Recv(TagUser)
	}()
	go func() { // rank 1: wedged — connected, silent, no heartbeats
		defer wg.Done()
		node, err := DialTCPContext(context.Background(), addr, 1, size)
		if err != nil {
			t.Error(err)
			return
		}
		time.Sleep(2 * time.Second)
		node.Abort()
	}()
	wg.Wait()
	if err := wait(); err == nil {
		t.Error("router reported success despite a wedged peer")
	}
	if !healthyLost.Load() {
		t.Error("healthy rank never observed the wedged peer's teardown")
	}
	if globalFT.heartbeatTimeouts.Load() == 0 {
		t.Error("heartbeat timeout counter never moved")
	}
}

func TestHeartbeatsKeepIdleMeshAlive(t *testing.T) {
	// Both sides heartbeat: an idle-but-healthy mesh must survive several
	// timeout windows and then complete a collective.
	const size = 2
	addr, wait, err := StartRouterOpts("127.0.0.1:0", size, RouterOptions{
		HeartbeatTimeout: 200 * time.Millisecond,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	hb := DialOptions{HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: 200 * time.Millisecond}
	var wg sync.WaitGroup
	errs := make([]error, size)
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			node, err := DialTCPOpts(context.Background(), addr, rank, size, hb)
			if err != nil {
				errs[rank] = err
				return
			}
			time.Sleep(time.Second) // five timeout windows of application silence
			if sum := AllGatherSum(node, int64(rank)); sum != 1 {
				errs[rank] = errors.New("wrong sum after idle period")
				return
			}
			errs[rank] = node.Close()
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
}
