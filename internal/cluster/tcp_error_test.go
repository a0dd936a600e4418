package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// dialRaw opens a bare connection to the router and writes frames to it.
func dialRaw(t *testing.T, addr string, frames ...[]byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	return conn
}

func TestRouterRejectsDuplicateRank(t *testing.T) {
	addr, wait, err := StartRouter("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := DialTCP(addr, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Second hello with the same rank: the router must reject it and wait()
	// must surface the error.
	dialRaw(t, addr, helloFrame(0)).Close()
	err = wait()
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("wait() = %v, want duplicate-rank error", err)
	}
}

// helloWith is a hello with its magic and version replaced.
func helloWith(rank int, magic, version uint32) []byte {
	f := helloFrame(rank)
	binary.LittleEndian.PutUint32(f[headerBytes:], magic)
	binary.LittleEndian.PutUint32(f[headerBytes+4:], version)
	return f
}

// TestRouterRejectsBadHellos: whatever a connection opens with that is not
// a valid hello must end the router with an error at once. The connection
// stays open throughout, so a router that waited for more bytes would hang
// here rather than pass by seeing the close.
func TestRouterRejectsBadHellos(t *testing.T) {
	oversized := helloFrame(0)
	binary.LittleEndian.PutUint32(oversized, maxFramePayload+1)
	cases := []struct {
		name, want string
		first      []byte
	}{
		{"out-of-range rank", "invalid rank", helloFrame(99)},
		{"data frame before any hello", "not a hello", appendMessage(nil, 0, 0, TagUser, 1, Int64Body(1))},
		{"wrong magic", "magic", helloWith(0, 0xdeadbeef, wireVersion)},
		{"wrong wire version", "version", helloWith(0, wireMagic, wireVersion+1)},
		{"text garbage", "", []byte("GET / HTTP/1.1\r\nHost: example\r\n\r\n")},
		{"hello flag with a huge length", "", oversized},
		{"gob-era hello", "", []byte{0x2b, 0xff, 0x81, 0x03, 0x01, 0x01, 0x05, 0x66, 0x72, 0x61, 0x6d, 0x65, 0x01, 0xff, 0x82, 0x00, 0x01}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, wait, err := StartRouter("127.0.0.1:0", 2)
			if err != nil {
				t.Fatal(err)
			}
			conn := dialRaw(t, addr, tc.first)
			defer conn.Close()
			got := make(chan error, 1)
			go func() { got <- wait() }()
			select {
			case err := <-got:
				if err == nil || !strings.Contains(err.Error(), "bad hello") || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("wait() = %v, want a bad-hello error mentioning %q", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("router still waiting 5s after a bad hello")
			}
		})
	}
}

// TestRouterRejectsInvalidFrames: after a valid hello, a frame the router
// cannot route (no such destination, a forged sender, a control flag it does
// not know, a length over the limit) tears the mesh down with an error; it
// must not panic the router or be forwarded.
func TestRouterRejectsInvalidFrames(t *testing.T) {
	huge := appendMessage(nil, 0, 1, TagUser, 1, Int64Body(1))
	binary.LittleEndian.PutUint32(huge, maxFramePayload+1)
	cases := map[string][]byte{
		"destination out of range": appendMessage(nil, 0, 7, TagUser, 1, Int64Body(1)),
		"forged sender":            appendMessage(nil, 1, 0, TagUser, 1, Int64Body(1)),
		"unknown flag":             controlFrame(0x80, 0),
		"second hello":             helloFrame(0),
		"length over the limit":    huge,
	}
	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			addr, wait, err := StartRouter("127.0.0.1:0", 2)
			if err != nil {
				t.Fatal(err)
			}
			peer, err := DialTCP(addr, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Abort()
			conn := dialRaw(t, addr, helloFrame(0), frame)
			defer conn.Close()
			if err := wait(); err == nil {
				t.Fatal("wait() reported success after an invalid frame")
			}
			// The healthy peer sees the teardown, not the frame.
			var cl *ConnLostError
			if err := recvOrConnLost(func() { peer.Recv(TagUser) }); !errors.As(err, &cl) {
				t.Fatalf("healthy peer: got %v, want ConnLostError", err)
			}
		})
	}
}

// fakeRouter accepts one node connection, consumes its hello and hands the
// connection to the test, which then plays a hostile router.
func fakeRouter(t *testing.T) (addr string, accepted <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if _, _, err := newFrameReader(conn).next(); err != nil {
			conn.Close()
			return
		}
		ch <- conn
	}()
	return ln.Addr().String(), ch
}

// withPayload is a message frame from rank 1 to rank 0 with an arbitrary
// kind and payload.
func withPayload(kind uint8, payload []byte) []byte {
	f := appendFrameHeader(nil, frameHeader{length: uint32(len(payload)), from: 1, to: 0, tag: TagUser, kind: kind, seq: 1})
	return append(f, payload...)
}

// TestNodeFailsMailboxOnHostileFrames: bytes from the router that do not
// decode fail the mailbox, and the blocked Recv panics a typed
// *ConnLostError — never a decode panic, a hang, or a silently wrong body.
func TestNodeFailsMailboxOnHostileFrames(t *testing.T) {
	misaddressed := appendMessage(nil, 1, 1, TagUser, 1, Int64Body(1))
	fromNowhere := appendMessage(nil, 5, 0, TagUser, 1, Int64Body(1))
	huge := withPayload(kindInt64, nil)
	binary.LittleEndian.PutUint32(huge, maxFramePayload+1)
	cases := map[string][]byte{
		"unregistered body kind":          withPayload(200, make([]byte, 8)),
		"kind zero on a message":          withPayload(0, nil),
		"int64 body of 7 bytes":           withPayload(kindInt64, make([]byte, 7)),
		"int64 slice of 12 bytes":         withPayload(kindInt64Slice, make([]byte, 12)),
		"uint64 slice of 1 byte":          withPayload(kindUint64Slice, make([]byte, 1)),
		"frame for another rank":          misaddressed,
		"frame from a rank beyond size":   fromNowhere,
		"control flag the node never got": controlFrame(flagBye, 1),
		"length over the limit":           huge,
		"truncated then closed":           withPayload(kindInt64, make([]byte, 8))[:headerBytes+3],
	}
	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			addr, accepted := fakeRouter(t)
			node, err := DialTCP(addr, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer node.Abort()
			conn := <-accepted
			defer conn.Close()
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			if name == "truncated then closed" {
				conn.Close()
			}
			got := make(chan error, 1)
			go func() { got <- recvOrConnLost(func() { node.Recv(TagUser) }) }()
			select {
			case err := <-got:
				var cl *ConnLostError
				if !errors.As(err, &cl) {
					t.Fatalf("Recv: got %v, want ConnLostError", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Recv still blocked 5s after a hostile frame")
			}
		})
	}
}

func TestTCPLargePayloadRoundTrip(t *testing.T) {
	// Vectors far beyond one TCP segment must arrive intact and in order.
	const n = 1 << 16
	runTCP(t, 2, func(comm Comm) error {
		if comm.Rank() == 0 {
			big := make(Int64SliceBody, n)
			for i := range big {
				big[i] = int64(i)
			}
			comm.Send(1, TagUser, big)
		} else {
			got := comm.Recv(TagUser).Body.(Int64SliceBody)
			if len(got) != n {
				t.Errorf("len %d", len(got))
			}
			for i, v := range got {
				if v != int64(i) {
					t.Errorf("elem %d = %d", i, v)
					break
				}
			}
		}
		comm.Barrier()
		return nil
	})
}

func TestTCPManySmallMessagesOrdered(t *testing.T) {
	// Per-sender Seq order must survive the router.
	const k = 500
	runTCP(t, 2, func(comm Comm) error {
		if comm.Rank() == 0 {
			for i := 0; i < k; i++ {
				comm.Send(1, TagUser, Int64Body(i))
			}
		} else {
			msgs := comm.RecvN(TagUser, k)
			for i, m := range msgs {
				if int64(m.Body.(Int64Body)) != int64(i) {
					t.Errorf("message %d out of order: %v", i, m.Body)
					break
				}
			}
		}
		comm.Barrier()
		return nil
	})
}

func TestTCPConcurrentSendersToOneReceiver(t *testing.T) {
	const sizeN = 5
	runTCP(t, sizeN, func(comm Comm) error {
		if comm.Rank() != 0 {
			var wg sync.WaitGroup
			// Each worker sends from its own goroutine bursts to rank 0;
			// receiver just needs the right totals.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					comm.Send(0, TagUser, Int64Body(1))
				}
			}()
			wg.Wait()
		} else {
			var total int64
			for _, m := range comm.RecvN(TagUser, 100*(sizeN-1)) {
				total += int64(m.Body.(Int64Body))
			}
			if total != 100*(sizeN-1) {
				t.Errorf("total %d", total)
			}
		}
		comm.Barrier()
		return nil
	})
}

// TestRouterRefusesBadHeadersUnforwarded: a frame whose header the router
// refuses — bad flags, ranks or length — tears the mesh down before a byte
// of it reaches the destination, which sees its connection close and
// nothing else.
func TestRouterRefusesBadHeadersUnforwarded(t *testing.T) {
	withLength := func(f []byte, n uint32) []byte {
		f = append([]byte(nil), f...)
		binary.LittleEndian.PutUint32(f, n)
		return append(f, make([]byte, min(n, 64))...)
	}
	toOne := appendMessage(nil, 0, 1, TagUser, 1, Int64Body(1))
	cases := map[string][]byte{
		"unknown flag":             append(appendFrameHeader(nil, frameHeader{length: 8, from: 0, to: 1, flags: 0x80}), make([]byte, 8)...),
		"hello flag on a message":  append(appendFrameHeader(nil, frameHeader{length: 8, from: 0, to: 1, flags: flagHello}), make([]byte, 8)...),
		"forged sender":            appendMessage(nil, 1, 1, TagUser, 1, Int64Body(1)),
		"destination out of range": appendMessage(nil, 0, 2, TagUser, 1, Int64Body(1)),
		"length over the limit":    withLength(toOne, maxFramePayload+1),
		"heartbeat with a payload": withLength(controlFrame(flagHb, 0), 8),
		"bye with a payload":       withLength(controlFrame(flagBye, 0), 8),
	}
	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			addr, wait, err := StartRouter("127.0.0.1:0", 2)
			if err != nil {
				t.Fatal(err)
			}
			dst := dialRaw(t, addr, helloFrame(1))
			defer dst.Close()
			src := dialRaw(t, addr, helloFrame(0), frame)
			defer src.Close()
			done := make(chan error, 1)
			go func() { done <- wait() }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("wait() reported success after an invalid frame")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("router still running 5s after an invalid frame")
			}
			dst.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := io.Copy(io.Discard, dst)
			if n != 0 || err != nil {
				t.Fatalf("the destination read %d bytes (%v) before the close", n, err)
			}
		})
	}
}

// TestRouterSenderDiesMidFrame: a sender that announces a 1 MiB frame and
// dies after 100 KiB of it leaves the destination's Recv panicking
// *ConnLostError — no truncated frame is delivered, and nothing hangs.
func TestRouterSenderDiesMidFrame(t *testing.T) {
	addr, wait, err := StartRouter("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := DialTCP(addr, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Abort()
	header := appendFrameHeader(nil, frameHeader{length: 1 << 20, from: 0, to: 1, tag: TagUser, kind: kindUint64Slice, seq: 1})
	src := dialRaw(t, addr, helloFrame(0), header, make([]byte, 100<<10))
	src.Close()
	got := make(chan error, 1)
	go func() { got <- recvOrConnLost(func() { dst.Recv(TagUser) }) }()
	select {
	case err := <-got:
		var cl *ConnLostError
		if !errors.As(err, &cl) {
			t.Fatalf("Recv: got %v, want ConnLostError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked 5s after the sender died mid-frame")
	}
	if err := wait(); err == nil {
		t.Fatal("wait() reported success after a sender died mid-frame")
	}
}

// TestRouterStreamsLargeFrames: a frame 16 times the router's buffer reaches
// its destination byte for byte, and the router's readers never grow — it
// holds a piece of the frame at a time, never the whole of it. Both peers
// are raw connections, so no node's reader is involved.
func TestRouterStreamsLargeFrames(t *testing.T) {
	addr, wait, err := StartRouter("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	frame := appendMessage(nil, 0, 1, TagUser, 1, make(Uint64SliceBody, 2*frameBufSize))
	for i := headerBytes; i < len(frame); i++ {
		frame[i] = byte(i * 7)
	}
	grows := frameBufGrows.Load()
	dst := dialRaw(t, addr, helloFrame(1))
	defer dst.Close()
	src := dialRaw(t, addr, helloFrame(0))
	defer src.Close()
	sent := make(chan error, 1)
	go func() {
		_, err := src.Write(append(frame, controlFrame(flagBye, 0)...))
		sent <- err
	}()
	dst.SetReadDeadline(time.Now().Add(10 * time.Second))
	got := make([]byte, len(frame))
	if _, err := io.ReadFull(dst, got); err != nil {
		t.Fatalf("destination read: %v", err)
	}
	if !bytes.Equal(got, frame) {
		t.Fatal("the frame arrived altered")
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Write(controlFrame(flagBye, 1)); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if n := frameBufGrows.Load() - grows; n != 0 {
		t.Errorf("the router's readers grew %d times", n)
	}
}
