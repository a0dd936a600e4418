package cluster

import (
	"sync"
	"testing"
)

// runTCP spins up a router plus size nodes on localhost and runs fn on each.
func runTCP(t *testing.T, size int, fn func(Comm) error) {
	t.Helper()
	addr, wait, err := StartRouter("127.0.0.1:0", size)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, size)
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			node, err := DialTCP(addr, rank, size)
			if err != nil {
				errs[rank] = err
				return
			}
			if err := fn(node); err != nil {
				errs[rank] = err
			}
			errs[rank] = node.Close()
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

func TestTCPPointToPoint(t *testing.T) {
	runTCP(t, 3, func(comm Comm) error {
		if comm.Rank() == 0 {
			comm.Send(1, TagUser, Int64Body(11))
			comm.Send(2, TagUser, Int64Body(22))
			return nil
		}
		m := comm.Recv(TagUser)
		want := int64(11 * comm.Rank())
		if int64(m.Body.(Int64Body)) != want {
			t.Errorf("rank %d got %v want %d", comm.Rank(), m.Body, want)
		}
		return nil
	})
}

func TestTCPBarrierAndCollectives(t *testing.T) {
	runTCP(t, 4, func(comm Comm) error {
		comm.Barrier()
		if sum := AllGatherSum(comm, int64(comm.Rank())); sum != 6 {
			t.Errorf("rank %d: AllGatherSum = %d, want 6", comm.Rank(), sum)
		}
		vec := make([]int64, 4)
		vec[comm.Rank()] = 1
		out := AllGatherSumVec(comm, vec)
		for i, v := range out {
			if v != 1 {
				t.Errorf("AllGatherSumVec[%d] = %d", i, v)
			}
		}
		comm.Barrier()
		return nil
	})
}

func TestTCPLoopbackIsFree(t *testing.T) {
	runTCP(t, 2, func(comm Comm) error {
		comm.Send(comm.Rank(), TagUser, Int64Body(9))
		m := comm.Recv(TagUser)
		if int64(m.Body.(Int64Body)) != 9 {
			t.Error("loopback lost the message")
		}
		if comm.Stats().MessagesSent.Load() != 0 {
			t.Error("loopback should not count as communication")
		}
		comm.Barrier()
		return nil
	})
}
