package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// Send only buffers; these tests pin down who writes the buffer and when.

// readHeader reads one frame from conn within five seconds and returns its
// header.
func readHeader(t *testing.T, fr *frameReader, conn net.Conn) frameHeader {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	h, _, err := fr.next()
	if err != nil {
		t.Fatalf("no frame within 5s: %v", err)
	}
	return h
}

func TestTCPSendIsDeliveredWithoutAnotherCall(t *testing.T) {
	// The sender makes one Send and never touches the transport again: no
	// Recv, no Barrier, no Close. The late-flush timer must deliver it.
	const size = 2
	addr, wait, err := StartRouter("127.0.0.1:0", size)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*TCPNode, size)
	for rank := range nodes {
		if nodes[rank], err = DialTCP(addr, rank, size); err != nil {
			t.Fatal(err)
		}
	}
	nodes[0].Send(1, TagUser, Int64Body(77))
	got := make(chan Message, 1)
	go func() { got <- nodes[1].Recv(TagUser) }()
	select {
	case m := <-got:
		if m.From != 0 || int64(m.Body.(Int64Body)) != 77 {
			t.Fatalf("received %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered 5s after a Send with no later call")
	}
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Error(err)
		}
	}
	if err := wait(); err != nil {
		t.Error(err)
	}
}

// countingConn counts the writes a node makes to its socket.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func TestTCPPhaseOfSendsIsOneWrite(t *testing.T) {
	// The P sends of a phase followed by the flush a receive starts with
	// leave as one socket write, in send order. (The late-flush timer may
	// split a phase when the sender is descheduled mid-phase; that is
	// allowed, rare, and never reorders.)
	addr, accepted := fakeRouter(t)
	var cc *countingConn
	node, err := DialTCPOpts(context.Background(), addr, 0, 4, DialOptions{
		Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, network, addr)
			cc = &countingConn{Conn: conn}
			return cc, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Abort()
	conn := <-accepted
	defer conn.Close()

	const phases = 20
	var want []byte
	single := 0
	for phase := 0; phase < phases; phase++ {
		before := cc.writes.Load()
		for to := 1; to < 4; to++ {
			node.Send(to, TagUser, Int64Body(to))
			want = appendMessage(want, 0, to, TagUser, uint64(3*phase+to), Int64Body(to))
		}
		if n := cc.writes.Load() - before; n > 1 {
			t.Fatalf("phase %d: %d writes before the sender blocked", phase, n)
		}
		node.flush()
		switch n := cc.writes.Load() - before; n {
		case 1:
			single++
		case 2:
		default:
			t.Fatalf("phase %d: %d writes for three sends and a flush", phase, n)
		}
	}
	if single < phases*3/4 {
		t.Errorf("only %d of %d phases left as a single write", single, phases)
	}
	got := make([]byte, len(want))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the router did not receive the frames as sent, in order")
	}

	// A send that fills the buffer past flushThreshold is written by Send
	// itself: bulk exchanges do not accumulate until the owner blocks.
	before := cc.writes.Load()
	node.Send(1, TagUser, make(Uint64SliceBody, flushThreshold/8))
	if n := cc.writes.Load() - before; n != 1 {
		t.Fatalf("%d writes during a send of flushThreshold bytes, want 1", n)
	}
}

func TestTCPHeartbeatIsWrittenThrough(t *testing.T) {
	// Heartbeats leave on their ticks with nobody calling the transport, and
	// a message buffered meanwhile leaves too.
	addr, accepted := fakeRouter(t)
	node, err := DialTCPOpts(context.Background(), addr, 0, 2, DialOptions{HeartbeatInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Abort()
	conn := <-accepted
	defer conn.Close()
	fr := newFrameReader(conn)
	for i := 0; i < 3; i++ {
		if h := readHeader(t, fr, conn); h.flags != flagHb || h.from != 0 {
			t.Fatalf("frame %d on an idle connection: %+v, want a heartbeat", i, h)
		}
	}
	node.Send(1, TagUser, Int64Body(5))
	sawData := false
	for i := 0; i < 3 && !sawData; i++ {
		h := readHeader(t, fr, conn)
		sawData = h.flags == 0 && h.to == 1 && h.kind == kindInt64
	}
	if !sawData {
		t.Fatal("buffered message did not leave with the heartbeats")
	}
}

func TestTCPCancelWakesRecvAfterBufferedSend(t *testing.T) {
	// Cancellation reaches a Recv that is blocked behind its own flushed
	// sends, and the cause on record is the context's, not the closed
	// socket's.
	addr, _, err := StartRouter("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	node, err := DialTCPContext(ctx, addr, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Abort()
	peer, err := DialTCP(addr, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Abort()
	got := make(chan error, 1)
	go func() {
		got <- recvOrConnLost(func() {
			node.Send(1, TagUser, Int64Body(1))
			node.Recv(TagUser) // the peer never answers
		})
	}()
	if m := peer.Recv(TagUser); m.From != 0 {
		t.Fatalf("peer received %+v", m)
	}
	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Recv failed with %v, want context.Canceled in the chain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked 5s after cancellation")
	}
	// Every later call fails the same way, sends included.
	if err := recvOrConnLost(func() {
		for i := 0; i < 2*flushThreshold/headerBytes; i++ {
			node.Send(1, TagUser, Int64Body(2))
		}
	}); err == nil {
		t.Error("sends on a cancelled node never failed")
	}
}
