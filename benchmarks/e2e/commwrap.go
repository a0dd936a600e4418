package main

import (
	"github.com/distributedne/dne/internal/cluster"
)

// timedComm times one rank's calls into its communicator. A rank calls its
// Comm from one goroutine, so the spans go on that rank's track and the
// counters need no lock. Bytes and messages are read off the inner Comm's
// own Stats around each call, which makes them exact and includes the
// messages Barrier sends inside the transport.
//
// Rank, Size, Stats and TryRecvAll are forwarded by embedding; the layers
// probe a Comm for no optional interface.
type timedComm struct {
	cluster.Comm
	tk *track

	msgs       int64
	protoBytes int64 // tag >= cluster.TagUser: the DNE superstep protocol
	collBytes  int64 // reserved tags: shuffle, collect, all-gathers, barriers
}

func newTimedComm(c cluster.Comm, tk *track) *timedComm {
	return &timedComm{Comm: c, tk: tk}
}

// account adds what the inner Comm sent since (msgs0, bytes0).
func (c *timedComm) account(tag cluster.Tag, msgs0, bytes0 int64) {
	st := c.Comm.Stats()
	c.msgs += st.MessagesSent.Load() - msgs0
	if tag >= cluster.TagUser {
		c.protoBytes += st.BytesSent.Load() - bytes0
	} else {
		c.collBytes += st.BytesSent.Load() - bytes0
	}
}

func (c *timedComm) Send(to int, tag cluster.Tag, body cluster.Body) {
	st := c.Comm.Stats()
	msgs0, bytes0 := st.MessagesSent.Load(), st.BytesSent.Load()
	s := c.tk.begin(spanSend)
	c.Comm.Send(to, tag, body)
	s.end()
	c.account(tag, msgs0, bytes0)
}

func (c *timedComm) Recv(tag cluster.Tag) cluster.Message {
	s := c.tk.begin(spanRecvWait)
	m := c.Comm.Recv(tag)
	s.end()
	return m
}

func (c *timedComm) RecvN(tag cluster.Tag, n int) []cluster.Message {
	s := c.tk.begin(spanRecvWait)
	ms := c.Comm.RecvN(tag, n)
	s.end()
	return ms
}

func (c *timedComm) Barrier() {
	st := c.Comm.Stats()
	msgs0, bytes0 := st.MessagesSent.Load(), st.BytesSent.Load()
	s := c.tk.begin(spanBarrierWait)
	c.Comm.Barrier()
	s.end()
	c.account(0, msgs0, bytes0)
}
