package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"khazana/internal/ktypes"
	"khazana/internal/wire"
)

// TestSerialFramingRejected pins what deleting the serial protocol
// promises: a client that opens with the retired length-prefixed framing
// ([u32 length][u32 from][payload]) is closed promptly without a reply,
// its request never reaches the handler, and neither it nor a client that
// stalls mid-preamble keeps the accept loop from serving mux peers.
func TestSerialFramingRejected(t *testing.T) {
	b, err := NewTCP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var handled atomic.Int32
	echo := echoHandler(2)
	b.SetHandler(func(ctx context.Context, from ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
		handled.Add(1)
		return echo(ctx, from, m)
	})

	// A connection that sends half a preamble and goes quiet.
	stalled, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte{0x4b, 0x5a}); err != nil {
		t.Fatal(err)
	}

	payload := wire.Marshal(&wire.Ping{From: 1})
	req := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(req[0:4], uint32(len(payload)+4))
	binary.LittleEndian.PutUint32(req[4:8], 1)
	copy(req[8:], payload)
	old, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if _, err := old.Write(req); err != nil {
		t.Fatal(err)
	}
	_ = old.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := old.Read(make([]byte, 16)); n != 0 || !(errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET)) {
		t.Fatalf("serial-framed client got %d bytes, err %v; want a closed connection", n, err)
	}
	if got := handled.Load(); got != 0 {
		t.Fatalf("handler ran %d times for a serial-framed request", got)
	}

	a, err := NewTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddPeer(2, b.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := a.Request(ctx, 2, &wire.Ping{From: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pong, ok := resp.(*wire.Pong); !ok || pong.From != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if got := handled.Load(); got != 1 {
		t.Fatalf("handler ran %d times, want 1 (the mux request)", got)
	}
}

// TestMuxManyGoroutinesOneConn hammers a single shared mux connection
// from hundreds of goroutines; run under -race it checks the demux
// bookkeeping (pending shards, channel pool, frame pool) for data races.
func TestMuxManyGoroutinesOneConn(t *testing.T) {
	a, err := NewTCP(1, "127.0.0.1:0", WithConnsPerPeer(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(2, b.Addr())
	b.SetHandler(echoHandler(2))

	const goroutines, perG = 300, 10
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				resp, err := a.Request(context.Background(), 2, &wire.Ping{From: 1})
				if err != nil {
					errs[i] = err
					return
				}
				if pong, ok := resp.(*wire.Pong); !ok || pong.From != 2 {
					errs[i] = fmt.Errorf("resp = %+v", resp)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}

// TestMuxMidStreamConnDeath kills the shared connection while many
// requests are in flight: every caller must get an error — promptly, not
// by hanging until some timeout — and the blocked server handlers must
// not wedge the transports' shutdown.
func TestMuxMidStreamConnDeath(t *testing.T) {
	a, err := NewTCP(1, "127.0.0.1:0", WithConnsPerPeer(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer(2, b.Addr())

	const inflight = 100
	var arrived atomic.Int32
	release := make(chan struct{})
	b.SetHandler(func(_ context.Context, _ ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
		arrived.Add(1)
		<-release
		return m, nil
	})

	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			_, err := a.Request(context.Background(), 2, &wire.Ping{From: 1})
			results <- err
		}()
	}
	// Wait until every request is parked inside a server handler.
	deadline := time.Now().Add(10 * time.Second)
	for arrived.Load() < inflight {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests arrived", arrived.Load(), inflight)
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the server. Close blocks until handlers drain, so run it on
	// the side and release the handlers once every caller has errored.
	closed := make(chan struct{})
	go func() {
		_ = b.Close()
		close(closed)
	}()
	for i := 0; i < inflight; i++ {
		select {
		case err := <-results:
			if err == nil {
				t.Fatal("in-flight request returned success after connection death")
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d still hanging after connection death", i)
		}
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("server Close did not finish after handlers released")
	}

	// The transport must recover: a fresh peer on the same ID works.
	c, err := NewTCP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetHandler(echoHandler(2))
	a.AddPeer(2, c.Addr())
	if _, err := a.Request(context.Background(), 2, &wire.Ping{From: 1}); err != nil {
		t.Fatalf("request after re-dial: %v", err)
	}
}

// TestMuxContextCancelInFlight cancels a caller while its request is
// parked in a server handler; the caller must return promptly with the
// context error and the connection must keep serving other requests.
func TestMuxContextCancelInFlight(t *testing.T) {
	a, err := NewTCP(1, "127.0.0.1:0", WithConnsPerPeer(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(2, b.Addr())

	release := make(chan struct{})
	b.SetHandler(func(_ context.Context, _ ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
		if _, ok := m.(*wire.Ping); ok {
			<-release
		}
		return m, nil
	})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Request(ctx, 2, &wire.Ping{From: 1})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled request did not return")
	}
	// The connection is still live for other traffic.
	if _, err := a.Request(context.Background(), 2, &wire.Ack{}); err != nil {
		t.Fatalf("request after cancel: %v", err)
	}
	close(release)
}

// FuzzMuxFrameRoundTrip round-trips the mux frame layouts through the
// transport's real reader:
//
//	request:  [u32 length][u32 reqID][payload...]
//	response: [u32 length][u32 reqID][u8 status][payload...]
//
// with length counting everything after itself, exactly as roundTrip and
// handleMux encode them. Request ID 0 is a one-way frame (send), which has
// no response.
func FuzzMuxFrameRoundTrip(f *testing.F) {
	f.Add(uint32(1), byte(0), []byte("payload"))
	f.Add(uint32(0xffffffff), byte(1), []byte{})
	f.Add(uint32(7), byte(2), bytes.Repeat([]byte{0xa5}, 1000))
	f.Add(uint32(0), byte(0), wire.Marshal(cleanRelease(1)))
	f.Fuzz(func(t *testing.T, id uint32, status byte, payload []byte) {
		// Request layout.
		req := make([]byte, 8+len(payload))
		binary.LittleEndian.PutUint32(req[0:4], uint32(len(req)-4))
		binary.LittleEndian.PutUint32(req[4:8], id)
		copy(req[8:], payload)
		bp, err := readFrame(bufio.NewReader(bytes.NewReader(req)))
		if err != nil {
			t.Fatalf("request readFrame: %v", err)
		}
		frame := *bp
		if got := binary.LittleEndian.Uint32(frame[0:4]); got != id {
			t.Fatalf("request id = %d, want %d", got, id)
		}
		if !bytes.Equal(frame[4:], payload) {
			t.Fatal("request payload differs after round trip")
		}
		putFrameBuf(bp)
		if id == 0 {
			return
		}

		// Response layout.
		resp := make([]byte, 9+len(payload))
		binary.LittleEndian.PutUint32(resp[0:4], uint32(len(resp)-4))
		binary.LittleEndian.PutUint32(resp[4:8], id)
		resp[8] = status
		copy(resp[9:], payload)
		bp, err = readFrame(bufio.NewReader(bytes.NewReader(resp)))
		if err != nil {
			t.Fatalf("response readFrame: %v", err)
		}
		frame = *bp
		if got := binary.LittleEndian.Uint32(frame[0:4]); got != id {
			t.Fatalf("response id = %d, want %d", got, id)
		}
		if frame[4] != status {
			t.Fatalf("response status = %d, want %d", frame[4], status)
		}
		if !bytes.Equal(frame[5:], payload) {
			t.Fatal("response payload differs after round trip")
		}
		putFrameBuf(bp)
	})
}

// TestMuxCoalescesUnderFanIn: 64 goroutines making round trips on one
// connection share the client's writes, because a frame queued behind a
// write in progress goes out in that writer's next writev: the
// connection writes more than 1.15 frames per writev (1.20 to 1.36 on 2
// vCPUs). The race detector slows the senders against the write syscall,
// so fewer of them arrive during a write (1.13 to 1.24): under it the
// test drives the fan-in but does not check the ratio.
func TestMuxCoalescesUnderFanIn(t *testing.T) {
	a, err := NewTCP(1, "127.0.0.1:0", WithConnsPerPeer(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(2, b.Addr())
	b.SetHandler(echoHandler(2))
	const goroutines, perG = 64, 400
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perG {
				if _, err := a.Request(context.Background(), 2, &wire.Ping{From: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	a.mmu.Lock()
	mc := a.muxConns[2][0]
	a.mmu.Unlock()
	writes, frames := mc.w.writes.Load(), mc.w.frames.Load()
	ratio := float64(frames) / float64(writes)
	t.Logf("%d frames in %d writes: %.2f per writev", frames, writes, ratio)
	if !raceEnabled && ratio <= 1.15 {
		t.Fatalf("%.2f frames per writev under 64-way fan-in, want more than 1.15", ratio)
	}
}

// stuckConn is a connection whose writes block until it is closed and
// then fail; entered receives as a write begins.
type stuckConn struct {
	brokenConn
	entered chan struct{}
}

func (c *stuckConn) Write([]byte) (int, error) {
	c.entered <- struct{}{}
	<-c.closed
	return 0, net.ErrClosed
}

// TestMuxQueuedSenderHonoursContext: a one-way send and a round trip
// queued behind a write that blocks both return their context's error by
// its deadline. The sender in the write waits for the write itself: it
// returns once the connection's close fails the write, with that error.
func TestMuxQueuedSenderHonoursContext(t *testing.T) {
	tr, err := NewTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	conn := &stuckConn{brokenConn: brokenConn{closed: make(chan struct{})}, entered: make(chan struct{}, 1)}
	mc := newMuxConn(tr, 2, 0, conn)
	go mc.readLoop()
	first := make(chan error, 1)
	go func() { first <- mc.send(context.Background(), cleanRelease(1)) }()
	<-conn.entered

	queued := map[string]func(context.Context) error{
		"one-way send": func(ctx context.Context) error { return mc.send(ctx, cleanRelease(1)) },
		"round trip": func(ctx context.Context) error {
			_, err := mc.roundTrip(ctx, &wire.Ping{From: 1})
			return err
		},
	}
	for name, op := range queued {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		res := make(chan error, 1)
		go func() { res <- op(ctx) }()
		select {
		case err := <-res:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s behind a blocked write = %v, want %v", name, err, context.DeadlineExceeded)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s behind a blocked write ignored its deadline", name)
		}
		cancel()
	}

	_ = conn.Close()
	select {
	case err := <-first:
		if err == nil {
			t.Fatal("the sender in the blocked write returned nil after the close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the sender in the blocked write did not return after the close")
	}
}
