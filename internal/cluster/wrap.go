package cluster

import (
	"math/rand"
	"time"
)

// Chaos wraps a Comm and injects a pseudo-random pause before each remote
// send, scrambling the interleaving of messages *across* senders while
// preserving each sender's own program order (sends are forwarded by a single
// FIFO worker, so per-sender Seq order is untouched). Correct algorithms must
// be insensitive to cross-sender arrival order — receivers re-sort by
// (From, Seq) — and Chaos turns that requirement into something tests can
// exercise: a run under Chaos must produce bit-identical results.
//
// Note that a barrier-synchronised algorithm never has a send outstanding
// when it blocks in a collective on the same Comm, because Send below only
// returns after the inner Send completed for self-sends and enqueues
// asynchronously otherwise; the worker preserves completion order, so any
// Recv that must see the message will still block until it arrives.
type Chaos struct {
	Comm
	queue chan queued
	done  chan struct{}
}

type queued struct {
	to   int
	tag  Tag
	body Body
}

// NewChaos wraps c with pauses uniform in [0, maxDelay) before each remote
// send. Call Close after the algorithm finishes to stop the worker.
func NewChaos(c Comm, seed int64, maxDelay time.Duration) *Chaos {
	w := &Chaos{
		Comm:  c,
		queue: make(chan queued, 1024),
		done:  make(chan struct{}),
	}
	rng := rand.New(rand.NewSource(seed))
	go func() {
		defer close(w.done)
		for q := range w.queue {
			if maxDelay > 0 {
				time.Sleep(time.Duration(rng.Int63n(int64(maxDelay))))
			}
			w.Comm.Send(q.to, q.tag, q.body)
		}
	}()
	return w
}

// Send implements Comm: remote messages are forwarded by the FIFO worker
// after a random pause. Self-sends stay synchronous (free local work).
func (w *Chaos) Send(to int, tag Tag, body Body) {
	if to == w.Rank() {
		w.Comm.Send(to, tag, body)
		return
	}
	w.queue <- queued{to: to, tag: tag, body: body}
}

// Close stops the worker after the queue drains.
func (w *Chaos) Close() {
	close(w.queue)
	<-w.done
}
