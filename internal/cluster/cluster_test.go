package cluster

import (
	"sync/atomic"
	"testing"
)

func TestPointToPointDelivery(t *testing.T) {
	c := New(3)
	err := c.Run(func(comm Comm) error {
		if comm.Rank() == 0 {
			comm.Send(1, TagUser, Int64Body(42))
			comm.Send(2, TagUser, Int64Body(43))
		}
		if comm.Rank() > 0 {
			m := comm.Recv(TagUser)
			want := int64(41 + comm.Rank())
			if int64(m.Body.(Int64Body)) != want {
				t.Errorf("rank %d got %v, want %d", comm.Rank(), m.Body, want)
			}
			if m.From != 0 {
				t.Errorf("rank %d got From=%d", comm.Rank(), m.From)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvNDeterministicOrder(t *testing.T) {
	c := New(4)
	err := c.Run(func(comm Comm) error {
		for to := 0; to < comm.Size(); to++ {
			comm.Send(to, TagUser, Int64Body(comm.Rank()))
		}
		msgs := comm.RecvN(TagUser, comm.Size())
		for i, m := range msgs {
			if m.From != i {
				t.Errorf("rank %d slot %d: From=%d", comm.Rank(), i, m.From)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagFiltering(t *testing.T) {
	c := New(2)
	const tagA, tagB = TagUser, TagUser + 1
	err := c.Run(func(comm Comm) error {
		if comm.Rank() == 0 {
			comm.Send(1, tagA, Int64Body(1))
			comm.Send(1, tagB, Int64Body(2))
			return nil
		}
		// Receive B first even though A was sent first.
		if got := int64(comm.Recv(tagB).Body.(Int64Body)); got != 2 {
			t.Errorf("tagB = %d", got)
		}
		if got := int64(comm.Recv(tagA).Body.(Int64Body)); got != 1 {
			t.Errorf("tagA = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronises(t *testing.T) {
	c := New(8)
	var before, after atomic.Int64
	err := c.Run(func(comm Comm) error {
		before.Add(1)
		comm.Barrier()
		if before.Load() != 8 {
			t.Error("barrier released before all machines arrived")
		}
		comm.Barrier()
		after.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after.Load() != 8 {
		t.Error("not all machines finished")
	}
}

func TestCollectives(t *testing.T) {
	c := New(5)
	err := c.Run(func(comm Comm) error {
		sum := AllGatherSum(comm, int64(comm.Rank()))
		if sum != 0+1+2+3+4 {
			t.Errorf("AllGatherSum = %d", sum)
		}
		vec := make([]int64, 5)
		vec[comm.Rank()] = int64(comm.Rank() + 1)
		out := AllGatherSumVec(comm, vec)
		for i, v := range out {
			if v != int64(i+1) {
				t.Errorf("AllGatherSumVec[%d] = %d", i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesSingleMachine(t *testing.T) {
	c := New(1)
	err := c.Run(func(comm Comm) error {
		if AllGatherSum(comm, 7) != 7 {
			t.Error("singleton sum")
		}
		if out := AllGatherSumVec(comm, []int64{1, 2}); out[1] != 2 {
			t.Error("singleton vec")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := New(2)
	err := c.Run(func(comm Comm) error {
		if comm.Rank() == 0 {
			comm.Send(1, TagUser, Int64Body(1)) // remote: counted
			comm.Send(0, TagUser, Int64Body(1)) // local: free
			comm.Recv(TagUser)
		} else {
			comm.Recv(TagUser)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs, bytes := totals(c)
	if msgs != 1 {
		t.Errorf("messages sent = %d, want 1 (local sends are free)", msgs)
	}
	if bytes != headerBytes+8 {
		t.Errorf("bytes sent = %d, want %d", bytes, headerBytes+8)
	}
}

// totals sums every machine's send counters.
func totals(c *Cluster) (msgs, bytes int64) {
	for r := 0; r < c.n; r++ {
		s := c.Node(r).Stats()
		msgs += s.MessagesSent.Load()
		bytes += s.BytesSent.Load()
	}
	return msgs, bytes
}
