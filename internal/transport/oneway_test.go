package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/telemetry"
	"khazana/internal/wire"
)

// cleanRelease builds a two-page read release: no dirty page, so one-way.
func cleanRelease(from ktypes.NodeID) *wire.ReleaseBatch {
	return &wire.ReleaseBatch{From: from, Items: []wire.ReleaseItem{
		{Page: gaddr.FromUint64(0x1000), Mode: ktypes.LockRead},
		{Page: gaddr.FromUint64(0x2000), Mode: ktypes.LockRead},
	}}
}

// testOneWayHasNoReply sends two clean releases: the handler answers the
// first with an Ack and fails the second. Request must return (nil, nil)
// both times, and no reply byte may reach the client, though both
// handlers ran.
func testOneWayHasNoReply(t *testing.T, client, server Transport) {
	reg := telemetry.New()
	client.SetTelemetry(reg)
	handled := make(chan int, 2)
	var calls atomic.Int32
	server.SetHandler(func(_ context.Context, _ ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
		handled <- len(m.(*wire.ReleaseBatch).Items)
		if calls.Add(1) == 2 {
			return nil, errors.New("not the home")
		}
		return &wire.Ack{}, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := range 2 {
		resp, err := client.Request(ctx, server.Self(), cleanRelease(client.Self()))
		if resp != nil || err != nil {
			t.Fatalf("one-way request %d = (%v, %v), want (nil, nil)", i, resp, err)
		}
		select {
		case n := <-handled:
			if n != 2 {
				t.Fatalf("handler saw %d items, want 2", n)
			}
		case <-ctx.Done():
			t.Fatal("the one-way request never reached the handler")
		}
	}
	// A reply written after the handler returned would arrive by now.
	time.Sleep(50 * time.Millisecond)
	if n := reg.Counter(telemetry.MetricTransportBytesIn).Load(); n != 0 {
		t.Fatalf("client received %d reply bytes for one-way requests, want 0", n)
	}
}

func TestInprocOneWayHasNoReply(t *testing.T) {
	net := NewNetwork()
	client, _ := net.Attach(1)
	server, _ := net.Attach(2)
	testOneWayHasNoReply(t, client, server)
	if reqs, _ := net.Stats(); reqs != 2 {
		t.Fatalf("Stats counts %d requests, want 2", reqs)
	}
}

func TestTCPOneWayHasNoReply(t *testing.T) {
	client, server := newTCPPair(t)
	testOneWayHasNoReply(t, client, server)
}

// TestMuxSeqSkipsZero: request ID 0 marks a one-way frame, so a request
// whose sequence wraps must be issued 1 and still get its reply.
func TestMuxSeqSkipsZero(t *testing.T) {
	a, b := newTCPPair(t)
	b.SetHandler(echoHandler(2))
	a.muxSeq.Store(0xffffffff)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := range 2 {
		resp, err := a.Request(ctx, 2, &wire.Ping{From: 1})
		if err != nil {
			t.Fatalf("request %d after the wrap: %v", i, err)
		}
		if _, ok := resp.(*wire.Pong); !ok {
			t.Fatalf("request %d after the wrap got %T", i, resp)
		}
	}
	if got := a.muxSeq.Load(); got != 2 {
		t.Fatalf("sequence at %d after two requests from 0xffffffff, want 2 (0 skipped)", got)
	}
}

// brokenConn is a connection whose writes fail and whose reads block
// until it is closed.
type brokenConn struct {
	net.Conn
	once   sync.Once
	closed chan struct{}
}

func (c *brokenConn) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }
func (c *brokenConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, io.EOF
}
func (c *brokenConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestMuxOneWaySendReportsWriteFailure: a one-way send returns only once
// its frame is written, so a write that fails is the caller's error, and
// so is a send after the connection died.
func TestMuxOneWaySendReportsWriteFailure(t *testing.T) {
	tr, err := NewTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	mc := newMuxConn(tr, 2, 0, &brokenConn{closed: make(chan struct{})})
	go mc.readLoop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := mc.send(ctx, cleanRelease(1)); err == nil || ctx.Err() != nil {
		t.Fatalf("send over a failing write = %v, want the write's error", err)
	}
	if err := mc.send(ctx, cleanRelease(1)); err == nil || ctx.Err() != nil {
		t.Fatalf("send over a dead connection = %v, want its error", err)
	}
}

// TestMuxOneWayBesideRoundTrips drives one-way sends and round trips from
// many goroutines over one connection, then kills the server while more
// sends are in flight: every clean release sent before the kill reaches
// the handler, and every send after it returns, with nil or an error,
// instead of hanging queued behind a write that failed.
func TestMuxOneWayBesideRoundTrips(t *testing.T) {
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
	var released atomic.Int64
	echo := echoHandler(2)
	b.SetHandler(func(ctx context.Context, from ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
		if _, ok := m.(*wire.ReleaseBatch); ok {
			released.Add(1)
			return nil, nil
		}
		return echo(ctx, from, m)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const goroutines, perG = 50, 20
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perG {
				if _, err := a.Request(ctx, 2, cleanRelease(1)); err != nil {
					t.Error(err)
					return
				}
				if _, err := a.Request(ctx, 2, &wire.Ping{From: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Every send was written before its Ping's round trip began, and the
	// server reads one connection in order.
	for released.Load() < goroutines*perG {
		if ctx.Err() != nil {
			t.Fatalf("%d of %d one-way releases reached the handler", released.Load(), goroutines*perG)
		}
		time.Sleep(time.Millisecond)
	}

	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if _, err := a.Request(ctx, 2, cleanRelease(1)); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	_ = b.Close()
	wg.Wait() // a sender stuck on a dead connection would hold this until ctx ends
	if ctx.Err() != nil {
		t.Fatal("one-way senders did not all return after the server died")
	}
}
