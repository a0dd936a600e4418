package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// TCP transport: the same Comm contract as the in-process cluster, but each
// machine is its own OS process — the deployed path of cmd/dneworker. A
// router in the rank-0 process accepts one connection per worker and
// forwards frames by destination rank, so workers need no mesh of
// connections.
//
// Everything on a connection is a length-prefixed binary frame (wire.go has
// the layout): a 16-byte header, then the payload a body's AppendWire wrote.
// A body type is carried if it implements WireBody and its decoder is
// registered with RegisterWire.
//
//	who      does what with a frame
//	Send     encodes header + body once into the node's write buffer
//	flush    writes every buffered frame with one socket write
//	router   checks the header, then streams header + payload bytes
//	         undecoded through its fixed buffer to the destination
//	node     decodes the payload by its kind into a fresh Body
//	self     a send to one's own rank is handed over by reference, unencoded
//
// No buffer on the path grows with the traffic. The router holds at most
// frameBufSize bytes of a connection, whatever the frame's length: it
// forwards a frame in pieces as they arrive, holding the destination's lock
// until the last one. Bulk payloads travel in chunks of MaxBody bytes, so
// every frame of theirs fits a node's first read buffer, and a write buffer
// holds about flushThreshold bytes plus one frame.
//
// Writes are coalesced: Send only buffers, and the buffer goes out when the
// owner next blocks in the transport (Recv, RecvN, Barrier, Close), when it
// passes flushThreshold, or — for a sender that never calls again — when the
// late-flush timer fires lateFlushDelay after the first buffered frame. A
// superstep phase of P sends is therefore one write. Heartbeats are written
// through at once.
//
// Bytes from the network are untrusted: a frame's length is bounded and
// never sizes an allocation (frameReader.fill), ranks, flags and kinds are
// checked — by the router before it forwards the first byte of a frame —
// and a payload its decoder rejects fails the node's mailbox, so the
// blocked Recv panics *ConnLostError* like any other transport death. A
// sender that dies inside a frame tears the mesh down like any other, so
// the destination sees its stream end mid-frame and is never handed the
// truncated frame.
//
// Fault tolerance: with RouterOptions.MaxRejoins > 0 the router survives a
// worker death. The mesh is generational — when any worker connection dies
// mid-run the router tears the whole generation down (every surviving
// worker's read loop fails, so every blocked Recv panics *ConnLostError*),
// then re-accepts a full set of fresh hellos within RejoinWindow and starts
// forwarding again. Workers rejoin with DialTCPRetry and the checkpointing
// layer above (internal/dne) decides where to resume. Heartbeat frames
// (DialOptions.HeartbeatInterval, RouterOptions.HeartbeatTimeout) detect
// wedged-but-open peers: the router echoes each worker's heartbeat, both
// sides bound the silence they tolerate with read deadlines, and a peer
// silent past the bound is treated exactly like a closed one.

const (
	// flushThreshold is the buffered size at which Send writes without
	// waiting for the owner to block: bulk exchanges (the shuffle's 256 KiB
	// chunks) stream out instead of accumulating.
	flushThreshold = 64 << 10
	// lateFlushDelay is how long a buffered frame can wait for its sender
	// to block before the timer writes it. It is the delivery bound for a
	// sender that never calls the transport again; a lock-step sender always
	// flushes sooner itself.
	lateFlushDelay = 250 * time.Microsecond
	// helloTimeout bounds how long the router waits for an accepted
	// connection's hello: a client that connects and stays silent is an
	// error, not a hang.
	helloTimeout = 10 * time.Second
)

// TCPNode is a Comm over the router.
type TCPNode struct {
	rank, size int
	conn       net.Conn
	box        *mailbox
	stats      *Stats
	seq        uint64
	stopWatch  func() bool // releases the context watchdog, if any
	hbStop     chan struct{}
	hbTimeout  time.Duration
	closeOnce  sync.Once

	wmu  sync.Mutex  // guards the fields below and writes to conn
	wbuf []byte      // encoded frames not yet written
	werr error       // first write failure; every later write fails with it
	late *time.Timer // writes wbuf if the owner does not block first
}

var _ Comm = (*TCPNode)(nil)

// RouterOptions configures StartRouterOpts. The zero value reproduces the
// fail-fast router: any dead worker connection tears the mesh down and the
// run is over.
type RouterOptions struct {
	// MaxRejoins is how many times the router will rebuild the mesh after a
	// worker connection dies mid-run. 0 = fail fast.
	MaxRejoins int
	// RejoinWindow bounds how long a rebuild waits for a complete set of
	// fresh hellos (including the restarted rank's). Defaults to 30s when
	// MaxRejoins > 0.
	RejoinWindow time.Duration
	// HeartbeatTimeout, when > 0, declares a worker connection dead after
	// this much silence. Workers must send heartbeats (DialOptions) at an
	// interval comfortably below it.
	HeartbeatTimeout time.Duration
	// Logf, when non-nil, receives one line per mesh teardown/rebuild.
	Logf func(format string, args ...any)
}

// StartRouter listens on addr and forwards frames among size machines. It
// returns the listener address (useful with ":0") and a function that blocks
// until all machines have said goodbye. Fail-fast: equivalent to
// StartRouterOpts with a zero RouterOptions.
func StartRouter(addr string, size int) (string, func() error, error) {
	return StartRouterOpts(addr, size, RouterOptions{})
}

// routerPeer is one worker connection from the router's point of view.
type routerPeer struct {
	mu   sync.Mutex // serializes the forwarders writing to conn, a frame at a time
	conn net.Conn
	fr   *frameReader
}

func (p *routerPeer) write(raw []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := p.conn.Write(raw)
	return err
}

// StartRouterOpts listens on addr and forwards frames among size machines,
// rebuilding the mesh up to opt.MaxRejoins times when a worker connection
// dies mid-run (see the package comment on fault tolerance).
func StartRouterOpts(addr string, size int, opt RouterOptions) (string, func() error, error) {
	if size <= 0 || size > maxRanks {
		return "", nil, fmt.Errorf("cluster: router size %d outside [1, %d]", size, maxRanks)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("cluster: router listen: %w", err)
	}
	if opt.MaxRejoins > 0 && opt.RejoinWindow <= 0 {
		opt.RejoinWindow = 30 * time.Second
	}
	result := make(chan error, 1)
	go func() { result <- routerLoop(ln, size, opt) }()
	wait := func() error {
		err := <-result
		ln.Close()
		return err
	}
	return ln.Addr().String(), wait, nil
}

// routerLoop drives mesh generations until one finishes cleanly (all byes),
// the rejoin budget is exhausted, or a rebuild times out.
func routerLoop(ln net.Listener, size int, opt RouterOptions) error {
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for gen := 0; ; gen++ {
		peers, err := acceptMesh(ln, size, gen, opt)
		if err != nil {
			return err
		}
		err = runGeneration(peers, opt)
		if err == nil {
			return nil
		}
		if gen >= opt.MaxRejoins {
			return err
		}
		globalFT.meshRebuilds.Add(1)
		logf("cluster: router: mesh generation %d died (%v); waiting up to %v for %d workers to rejoin",
			gen, err, opt.RejoinWindow, size)
	}
}

// readHello reads and validates the hello on a fresh connection and returns
// the rank it announces. The header is checked before the payload is
// awaited, so garbage fails on its first 16 bytes.
func readHello(fr *frameReader, size int) (int, error) {
	h, err := fr.peek()
	if err != nil {
		return 0, err
	}
	if h.flags != flagHello || h.length != helloBytes {
		return 0, errors.New("first frame is not a hello")
	}
	_, raw, err := fr.next()
	if err != nil {
		return 0, err
	}
	if err := checkHello(raw[headerBytes:]); err != nil {
		return 0, err
	}
	if h.from >= size {
		return 0, fmt.Errorf("invalid rank %d", h.from)
	}
	return h.from, nil
}

// acceptMesh collects one hello per rank. For rebuild generations (gen > 0)
// the whole collection is bounded by opt.RejoinWindow and a later hello for
// an already-seen rank replaces the earlier connection (a worker may have
// abandoned a dial that was sitting in the listen backlog).
func acceptMesh(ln net.Listener, size, gen int, opt RouterOptions) ([]*routerPeer, error) {
	var deadline time.Time
	if gen > 0 {
		deadline = time.Now().Add(opt.RejoinWindow)
	}
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline) // zero deadline = no deadline
		defer tl.SetDeadline(time.Time{})
	}
	peers := make([]*routerPeer, size)
	seen := 0
	closeAll := func() {
		for _, p := range peers {
			if p != nil {
				p.conn.Close()
			}
		}
	}
	for seen < size {
		conn, err := ln.Accept()
		if err != nil {
			closeAll()
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return nil, fmt.Errorf("cluster: router: mesh rebuild timed out after %v with %d/%d workers", opt.RejoinWindow, seen, size)
			}
			return nil, err
		}
		helloBy := deadline
		if helloBy.IsZero() {
			helloBy = time.Now().Add(helloTimeout)
		}
		conn.SetReadDeadline(helloBy)
		fr := newFrameReader(conn)
		r, err := readHello(fr, size)
		if err != nil {
			conn.Close()
			closeAll()
			return nil, fmt.Errorf("cluster: router: bad hello: %w", err)
		}
		conn.SetReadDeadline(time.Time{})
		if peers[r] != nil {
			if gen == 0 && opt.MaxRejoins == 0 {
				conn.Close()
				closeAll()
				return nil, fmt.Errorf("cluster: router: invalid or duplicate rank %d", r)
			}
			// Newest wins: the older connection is a stale dial the worker
			// abandoned before this one.
			peers[r].conn.Close()
			seen--
		}
		peers[r] = &routerPeer{conn: conn, fr: fr}
		seen++
	}
	return peers, nil
}

// runGeneration forwards frames among one complete mesh until every worker
// says goodbye (returns nil) or any connection dies (tears the whole mesh
// down and returns the first error).
func runGeneration(peers []*routerPeer, opt RouterOptions) error {
	size := len(peers)
	done := make(chan error, size)

	// closeAll tears the whole mesh down once any worker connection dies
	// mid-run. Closing every connection makes every surviving worker's read
	// loop fail, which fails its mailbox and wakes any blocked Recv — a dead
	// peer must crash the generation loudly, not leave the other ranks
	// waiting forever for frames that will never arrive.
	var closeOnce sync.Once
	closeAll := func() {
		closeOnce.Do(func() {
			for _, p := range peers {
				p.conn.Close()
			}
		})
	}

	// forward returns nil once rank has said goodbye, or why its connection
	// must count as dead. The payload is never decoded: a frame leaves as
	// the bytes it arrived as, streamed through the reader's fixed buffer.
	forward := func(rank int) error {
		self := peers[rank]
		hbEcho := controlFrame(flagHb, rank)
		readErr := func(err error) error {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				globalFT.heartbeatTimeouts.Add(1)
				err = fmt.Errorf("cluster: router: rank %d silent past heartbeat timeout %v", rank, opt.HeartbeatTimeout)
			}
			return fmt.Errorf("cluster: router: read from %d: %w", rank, err)
		}
		for {
			if opt.HeartbeatTimeout > 0 {
				self.conn.SetReadDeadline(time.Now().Add(opt.HeartbeatTimeout))
			}
			h, err := self.fr.peek()
			if err != nil {
				return readErr(err)
			}
			control := h.flags == flagHb || h.flags == flagBye
			switch {
			case control && h.length != 0,
				!control && (h.flags != 0 || h.from != rank || h.to >= size):
				return fmt.Errorf("cluster: router: rank %d sent an invalid frame (flags %#x, from %d, to %d, %d bytes)", rank, h.flags, h.from, h.to, h.length)
			case h.flags == flagHb:
				self.fr.next() // the header alone, already buffered
				// Echo so the worker's own silence bound is satisfied by a
				// healthy router even when no algorithm traffic flows.
				if err := self.write(hbEcho); err != nil {
					return fmt.Errorf("cluster: router: heartbeat echo to %d: %w", rank, err)
				}
			case h.flags == flagBye:
				return nil
			default:
				dst := peers[h.to]
				var werr error
				dst.mu.Lock()
				err := self.fr.copyNext(h, func(b []byte) error {
					_, werr = dst.conn.Write(b)
					return werr
				})
				dst.mu.Unlock()
				if werr != nil {
					return fmt.Errorf("cluster: router: forward to %d: %w", h.to, werr)
				}
				if err != nil {
					return readErr(err)
				}
			}
		}
	}
	for rank := range peers {
		go func(rank int) {
			err := forward(rank)
			if err != nil {
				closeAll()
			}
			done <- err
		}(rank)
	}
	var firstErr error
	for i := 0; i < size; i++ {
		if err := <-done; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Clean finish leaves the bye'd connections open; a failed one already
	// closed everything via closeAll.
	closeAll()
	return firstErr
}

// DialOptions configures DialTCPOpts. The zero value is plain DialTCPContext
// behavior.
type DialOptions struct {
	// Dial replaces the TCP dial (tests, fault injection). Nil = net.Dialer.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
	// HeartbeatInterval, when > 0, sends a heartbeat frame this often so the
	// router can tell a wedged worker from an idle one.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout, when > 0, declares the router dead after this much
	// read silence (heartbeat echoes count). Set it to several intervals.
	HeartbeatTimeout time.Duration
}

// DialTCP connects a machine to the router.
func DialTCP(addr string, rank, size int) (*TCPNode, error) {
	return DialTCPContext(context.Background(), addr, rank, size)
}

// DialTCPContext is DialTCP bound to a context: when ctx is cancelled or
// its deadline passes, the node's connection is closed and every blocked
// Recv is woken with the context error (via the mailbox's failure path), so
// a dead or wedged peer can never hang this process past its deadline. The
// dial itself also honors ctx.
func DialTCPContext(ctx context.Context, addr string, rank, size int) (*TCPNode, error) {
	return DialTCPOpts(ctx, addr, rank, size, DialOptions{})
}

// DialTCPOpts is DialTCPContext with a replaceable dial function and
// optional heartbeats.
func DialTCPOpts(ctx context.Context, addr string, rank, size int, o DialOptions) (*TCPNode, error) {
	if size > maxRanks || rank < 0 || rank >= size {
		return nil, fmt.Errorf("cluster: rank %d of %d outside what the wire format addresses (%d ranks)", rank, size, maxRanks)
	}
	dial := o.Dial
	if dial == nil {
		var d net.Dialer
		dial = d.DialContext
	}
	conn, err := dial(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial router: %w", err)
	}
	n := &TCPNode{
		rank: rank, size: size,
		conn:      conn,
		box:       newMailbox(),
		stats:     &Stats{},
		hbTimeout: o.HeartbeatTimeout,
	}
	if ctx.Done() != nil {
		n.stopWatch = context.AfterFunc(ctx, func() {
			n.box.fail(ctx.Err())
			n.conn.Close()
		})
	}
	if _, err := conn.Write(helloFrame(rank)); err != nil {
		n.release()
		conn.Close()
		return nil, fmt.Errorf("cluster: hello: %w", err)
	}
	if o.HeartbeatInterval > 0 {
		n.hbStop = make(chan struct{})
		go n.heartbeatLoop(o.HeartbeatInterval)
	}
	go n.readLoop()
	return n, nil
}

// release detaches the context watchdog and stops the heartbeat sender and
// the late-flush timer.
func (n *TCPNode) release() {
	if n.stopWatch != nil {
		n.stopWatch()
	}
	if n.hbStop != nil {
		n.closeOnce.Do(func() { close(n.hbStop) })
	}
	n.wmu.Lock()
	if n.late != nil {
		n.late.Stop()
	}
	n.wmu.Unlock()
}

// flushLocked writes every buffered frame with one socket write. The caller
// holds wmu.
func (n *TCPNode) flushLocked() error {
	if n.werr == nil && len(n.wbuf) > 0 {
		if _, err := n.conn.Write(n.wbuf); err != nil {
			n.werr = err
		}
		n.wbuf = n.wbuf[:0]
		if n.late != nil {
			n.late.Stop()
		}
	}
	return n.werr
}

// flush writes the buffered frames before the owner blocks. A failed write
// fails the mailbox, so the receive that follows panics *ConnLostError* with
// the first cause on record.
func (n *TCPNode) flush() {
	n.wmu.Lock()
	err := n.flushLocked()
	n.wmu.Unlock()
	if err != nil {
		n.box.fail(fmt.Errorf("cluster: write to router: %w", err))
	}
}

// heartbeatLoop writes a heartbeat frame through every interval until
// release. A send failure fails the mailbox (waking the machine goroutine
// wherever it is blocked) rather than panicking in this background
// goroutine.
func (n *TCPNode) heartbeatLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	hb := controlFrame(flagHb, n.rank)
	for {
		select {
		case <-n.hbStop:
			return
		case <-t.C:
			n.wmu.Lock()
			n.wbuf = append(n.wbuf, hb...)
			err := n.flushLocked()
			n.wmu.Unlock()
			if err != nil {
				n.box.fail(fmt.Errorf("cluster: heartbeat send: %w", err))
				return
			}
		}
	}
}

func (n *TCPNode) readLoop() {
	fr := newFrameReader(n.conn)
	for {
		if n.hbTimeout > 0 {
			n.conn.SetReadDeadline(time.Now().Add(n.hbTimeout))
		}
		h, raw, err := fr.next()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				globalFT.heartbeatTimeouts.Add(1)
				err = fmt.Errorf("cluster: router silent past heartbeat timeout %v", n.hbTimeout)
			}
			// Wake any blocked Recv: a dead router must fail the worker
			// loudly, not leave it waiting for frames that will never come.
			n.box.fail(err)
			return
		}
		if h.flags == flagHb {
			continue // echo of our own heartbeat; the read deadline is reset above
		}
		// Receivers index per-rank state by From, so a frame that lies about
		// its ranks is as fatal as one that does not decode.
		if h.flags != 0 || h.from >= n.size || h.to != n.rank {
			n.box.fail(fmt.Errorf("cluster: invalid frame from the router (flags %#x, from %d, to %d)", h.flags, h.from, h.to))
			return
		}
		body, err := DecodeWire(h.kind, raw[headerBytes:])
		if err != nil {
			n.box.fail(fmt.Errorf("cluster: decode body from %d (tag %d, kind %d, %d bytes): %w", h.from, h.tag, h.kind, h.length, err))
			return
		}
		n.box.put(Message{From: h.from, To: h.to, Tag: h.tag, Seq: h.seq, Body: body})
	}
}

// Rank implements Comm.
func (n *TCPNode) Rank() int { return n.rank }

// Size implements Comm.
func (n *TCPNode) Size() int { return n.size }

// Stats implements Comm.
func (n *TCPNode) Stats() *Stats { return n.stats }

// MaxBody implements Comm: a body of this size makes a frame that fills a
// frame reader's first buffer exactly.
func (n *TCPNode) MaxBody() int { return frameBufSize - headerBytes }

// Send implements Comm: it encodes the message into the write buffer (see
// the package comment for when the buffer is written). A dead connection
// panics *ConnLostError*, the same signal a blocked Recv raises, so one
// recovery path (dne.recoverConnLost) covers both directions of the
// transport dying.
func (n *TCPNode) Send(to int, tag Tag, body Body) {
	n.seq++
	if to == n.rank {
		// Local loopback by reference, like the in-process transport (free).
		n.box.put(Message{From: n.rank, To: to, Tag: tag, Seq: n.seq, Body: body})
		return
	}
	wb, ok := body.(WireBody)
	if !ok || to < 0 || to >= n.size {
		panic(fmt.Sprintf("cluster: cannot send %T to rank %d of %d: not a WireBody or no such rank", body, to, n.size))
	}
	wire := int64(headerBytes + body.WireSize())
	n.stats.MessagesSent.Add(1)
	n.stats.BytesSent.Add(wire)
	globalObs.record(tag, n.rank, wire)

	n.wmu.Lock()
	start := len(n.wbuf)
	n.wbuf = appendMessage(n.wbuf, n.rank, to, tag, n.seq, wb)
	err := n.werr
	switch {
	case err != nil:
	case len(n.wbuf) >= flushThreshold:
		err = n.flushLocked()
	case start == 0:
		if n.late == nil {
			n.late = time.AfterFunc(lateFlushDelay, n.flush)
		} else {
			n.late.Reset(lateFlushDelay)
		}
	}
	n.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("cluster: send to %d: %w", to, err)
		n.box.fail(err)
		panic(&ConnLostError{Tag: tag, Err: err})
	}
}

// Recv implements Comm.
func (n *TCPNode) Recv(tag Tag) Message {
	n.flush()
	return n.box.take(tag)
}

// RecvN implements Comm.
func (n *TCPNode) RecvN(tag Tag, k int) []Message {
	n.flush()
	return n.box.takeN(tag, k)
}

// Barrier implements Comm: workers report to rank 0 and wait for release.
func (n *TCPNode) Barrier() {
	if n.rank == 0 {
		for i := 1; i < n.size; i++ {
			n.Recv(tagBarrier)
		}
		for i := 1; i < n.size; i++ {
			n.Send(i, tagBarrier, Int64Body(1))
		}
		n.flush()
		return
	}
	n.Send(0, tagBarrier, Int64Body(1))
	n.Recv(tagBarrier)
}

// Close writes what is still buffered, says goodbye to the router and closes
// the connection.
func (n *TCPNode) Close() error {
	n.release()
	n.wmu.Lock()
	n.wbuf = append(n.wbuf, controlFrame(flagBye, n.rank)...)
	err := n.flushLocked()
	n.wmu.Unlock()
	if err != nil {
		n.conn.Close()
		return err
	}
	return n.conn.Close()
}

// Abort closes the connection without a goodbye, as a crashed process
// would: frames still buffered are lost with it. Tests use it to simulate a
// rank dying mid-superstep; the fault-tolerant rejoin path uses it to
// discard a dead generation's node.
func (n *TCPNode) Abort() error {
	n.release()
	return n.conn.Close()
}
