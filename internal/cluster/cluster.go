// Package cluster is the message-passing substrate that stands in for the
// paper's MPI cluster (§7.1: up to 256 machines, IntelMPI). A Cluster hosts N
// logical machines; each machine is driven by one goroutine and owns a
// mailbox. Machines communicate only by sending tagged, sized messages, and
// synchronise with MPI-style collectives (Barrier, AllGatherSum, AllGatherMin)
// that are themselves built from messages so that communication volume is
// accounted exactly.
//
// Two implementations of the Comm interface exist: the in-process one in this
// file (goroutines + mailboxes) and a TCP one in tcp.go used by cmd/dneworker
// for true multi-process runs. Algorithms are written against Comm and cannot
// tell the difference.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Tag identifies a message class. Algorithms define their own tags; the
// collective implementations reserve the tags below.
type Tag uint8

// Reserved collective tags. User tags must be >= TagUser.
const (
	tagBarrier Tag = iota
	tagReduce
	tagBcast
	// tagCollCount / tagCollData frame the chunked collectives (AllToAllU64,
	// GatherKeyed): counts travel separately from data so a receiver never
	// misreads an early data chunk as another sender's count.
	tagCollCount
	tagCollData
	// TagUser is the first tag available to algorithms.
	TagUser
)

// Body is a message payload. WireSize reports the number of bytes the payload
// would occupy on the wire and is used for communication accounting.
type Body interface {
	WireSize() int
}

// headerBytes is the accounted per-message framing overhead (from, to, tag,
// length), mirroring a compact RPC framing.
const headerBytes = 16

// Message is a delivered message.
type Message struct {
	From int
	To   int
	Tag  Tag
	Seq  uint64 // per-sender sequence number, for deterministic ordering
	Body Body
}

// Int64Body is a ready-made payload carrying a single int64 (collectives,
// counters).
type Int64Body int64

// WireSize implements Body.
func (Int64Body) WireSize() int { return 8 }

// Stats accumulates per-machine communication counters.
type Stats struct {
	MessagesSent atomic.Int64
	BytesSent    atomic.Int64
}

// Comm is the communicator handed to each machine. All methods are
// goroutine-safe with respect to other machines but a single machine must not
// call them concurrently with itself (same contract as an MPI rank).
type Comm interface {
	// Rank is this machine's id in [0, Size).
	Rank() int
	// Size is the number of machines.
	Size() int
	// Send delivers body to machine `to` under tag. Send never blocks.
	Send(to int, tag Tag, body Body)
	// Recv blocks until a message with the given tag is available and
	// returns it. Messages with other tags are retained.
	Recv(tag Tag) Message
	// RecvN receives exactly n messages with the given tag, returned in
	// deterministic (From, Seq) order.
	RecvN(tag Tag, n int) []Message
	// Barrier blocks until every machine has entered the barrier.
	Barrier()
	// Stats returns this machine's communication counters.
	Stats() *Stats
	// MaxBody is the largest body, in wire bytes, that reaches its receiver
	// without growing a buffer. The chunked collectives split bulk payloads
	// into bodies of at most this size: a frame reader's first buffer on
	// TCP, no limit in process, where bodies travel by reference.
	MaxBody() int
}

// Cluster is an in-process set of machines.
type Cluster struct {
	n     int
	boxes []*mailbox
	stats []*Stats
	bar   *barrier
	seq   []atomic.Uint64
}

// New creates a cluster of n machines.
func New(n int) *Cluster {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: size must be positive, got %d", n))
	}
	c := &Cluster{
		n:     n,
		boxes: make([]*mailbox, n),
		stats: make([]*Stats, n),
		bar:   newBarrier(n),
		seq:   make([]atomic.Uint64, n),
	}
	for i := range c.boxes {
		c.boxes[i] = newMailbox()
		c.stats[i] = &Stats{}
	}
	return c
}

// Node returns the communicator for machine rank.
func (c *Cluster) Node(rank int) Comm {
	return &node{c: c, rank: rank}
}

// FailAll marks every machine's transport dead with err: each blocked or
// future Recv panics *ConnLostError*, exactly as when the TCP router tears a
// mesh down. Fault-injection tests use it so that one rank's injected death
// propagates to the whole in-process mesh the way a real one would.
func (c *Cluster) FailAll(err error) {
	for _, b := range c.boxes {
		b.fail(err)
	}
}

// Run starts fn on every machine concurrently and waits for all to return.
// The first error (by rank) is returned.
func (c *Cluster) Run(fn func(comm Comm) error) error {
	errs := make([]error, c.n)
	var wg sync.WaitGroup
	for r := 0; r < c.n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = fn(c.Node(rank))
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type node struct {
	c    *Cluster
	rank int
}

func (n *node) Rank() int     { return n.rank }
func (n *node) Size() int     { return n.c.n }
func (n *node) Stats() *Stats { return n.c.stats[n.rank] }
func (n *node) MaxBody() int  { return math.MaxInt }

func (n *node) Send(to int, tag Tag, body Body) {
	if to < 0 || to >= n.c.n {
		panic(fmt.Sprintf("cluster: send to invalid rank %d (size %d)", to, n.c.n))
	}
	msg := Message{From: n.rank, To: to, Tag: tag, Seq: n.c.seq[n.rank].Add(1), Body: body}
	if to != n.rank {
		// Local (same-machine) traffic is free, as in the paper's
		// communication-cost accounting.
		wire := int64(headerBytes + body.WireSize())
		n.Stats().MessagesSent.Add(1)
		n.Stats().BytesSent.Add(wire)
		globalObs.record(tag, n.rank, wire)
	}
	n.c.boxes[to].put(msg)
}

func (n *node) Recv(tag Tag) Message           { return n.c.boxes[n.rank].take(tag) }
func (n *node) RecvN(tag Tag, k int) []Message { return n.c.boxes[n.rank].takeN(tag, k) }

func (n *node) Barrier() { n.c.bar.wait() }

func sortMessages(msgs []Message) {
	slices.SortFunc(msgs, func(a, b Message) int {
		if a.From != b.From {
			return cmp.Compare(a.From, b.From)
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
}

// mailbox is an unbounded, tag-filterable message queue.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []Message
	err  error // set by fail: the transport died
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg Message) {
	m.mu.Lock()
	m.msgs = append(m.msgs, msg)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// ConnLostError is the panic value raised by a blocked Recv when the
// transport dies underneath it (peer crash, router teardown, context
// cancellation). It panics rather than returns so the Comm contract stays
// value-based, but callers that own a whole machine loop can recover it and
// surface a normal error (dne does).
type ConnLostError struct {
	Tag Tag
	Err error
}

// Error implements error.
func (e *ConnLostError) Error() string {
	return fmt.Sprintf("cluster: recv tag %d: connection lost: %v", e.Tag, e.Err)
}

// Unwrap exposes the transport error (e.g. context.Canceled).
func (e *ConnLostError) Unwrap() error { return e.Err }

// take removes and returns the first message with the given tag, blocking
// until one arrives. If the transport has died (fail), take panics with a
// *ConnLostError instead of blocking forever — matching Send's
// panic-on-dead-connection contract.
func (m *mailbox) take(tag Tag) Message {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, msg := range m.msgs {
			if msg.Tag == tag {
				m.msgs = append(m.msgs[:i], m.msgs[i+1:]...)
				return msg
			}
		}
		if m.err != nil {
			panic(&ConnLostError{Tag: tag, Err: m.err})
		}
		m.cond.Wait()
	}
}

// maxRecvReserve bounds the messages takeN makes room for before they
// arrive: its count may come from a peer, and must not size memory.
const maxRecvReserve = 1 << 10

// takeN removes k messages with the given tag, blocking until each arrives,
// and returns them in deterministic (From, Seq) order.
func (m *mailbox) takeN(tag Tag, k int) []Message {
	msgs := make([]Message, 0, min(k, maxRecvReserve))
	for len(msgs) < k {
		msgs = append(msgs, m.take(tag))
	}
	sortMessages(msgs)
	return msgs
}

// fail marks the transport dead and wakes every blocked take. The first
// failure wins: the root cause (say, a cancelled context) must not be
// overwritten by the cascade it triggers (the closed-connection read error).
func (m *mailbox) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// barrier is a reusable N-party barrier.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
