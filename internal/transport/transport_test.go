package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"khazana/internal/ktypes"
	"khazana/internal/wire"
)

// echoHandler answers Ping with Pong and echoes everything else.
func echoHandler(self ktypes.NodeID) Handler {
	return func(_ context.Context, from ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
		if _, ok := m.(*wire.Ping); ok {
			return &wire.Pong{From: self}, nil
		}
		return m, nil
	}
}

func TestInprocRequestResponse(t *testing.T) {
	net := NewNetwork()
	t1, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := net.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	t2.SetHandler(echoHandler(2))

	resp, err := t1.Request(context.Background(), 2, &wire.Ping{From: 1})
	if err != nil {
		t.Fatal(err)
	}
	pong, ok := resp.(*wire.Pong)
	if !ok || pong.From != 2 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestInprocAttachValidation(t *testing.T) {
	net := NewNetwork()
	if _, err := net.Attach(0); err == nil {
		t.Fatal("attaching node 0 should fail")
	}
	if _, err := net.Attach(1); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach(1); err == nil {
		t.Fatal("duplicate attach should fail")
	}
}

func TestInprocUnknownPeer(t *testing.T) {
	net := NewNetwork()
	t1, _ := net.Attach(1)
	_, err := t1.Request(context.Background(), 9, &wire.Ping{From: 1})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestInprocNoHandler(t *testing.T) {
	net := NewNetwork()
	t1, _ := net.Attach(1)
	_, _ = net.Attach(2)
	_, err := t1.Request(context.Background(), 2, &wire.Ping{From: 1})
	if !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v", err)
	}
}

func TestInprocPartitionAndHeal(t *testing.T) {
	net := NewNetwork()
	t1, _ := net.Attach(1)
	t2, _ := net.Attach(2)
	t2.SetHandler(echoHandler(2))

	net.Partition(1, 2)
	if _, err := t1.Request(context.Background(), 2, &wire.Ping{From: 1}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partitioned err = %v", err)
	}
	net.Heal(1, 2)
	if _, err := t1.Request(context.Background(), 2, &wire.Ping{From: 1}); err != nil {
		t.Fatalf("healed err = %v", err)
	}
}

func TestInprocIsolateAndHealAll(t *testing.T) {
	net := NewNetwork()
	t1, _ := net.Attach(1)
	t2, _ := net.Attach(2)
	t3, _ := net.Attach(3)
	t2.SetHandler(echoHandler(2))
	t3.SetHandler(echoHandler(3))

	net.Isolate(1)
	for _, to := range []ktypes.NodeID{2, 3} {
		if _, err := t1.Request(context.Background(), to, &wire.Ping{From: 1}); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("isolated request to %v: %v", to, err)
		}
	}
	// Other links unaffected.
	t3.SetHandler(echoHandler(3))
	if _, err := t2.Request(context.Background(), 3, &wire.Ping{From: 2}); err != nil {
		t.Fatalf("2->3 should work: %v", err)
	}
	net.HealAll()
	if _, err := t1.Request(context.Background(), 2, &wire.Ping{From: 1}); err != nil {
		t.Fatalf("after HealAll: %v", err)
	}
}

func TestInprocCrashRestart(t *testing.T) {
	net := NewNetwork()
	t1, _ := net.Attach(1)
	t2, _ := net.Attach(2)
	t2.SetHandler(echoHandler(2))

	net.Crash(2)
	if !net.Crashed(2) {
		t.Fatal("node 2 should be crashed")
	}
	if _, err := t1.Request(context.Background(), 2, &wire.Ping{From: 1}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("crashed err = %v", err)
	}
	// A crashed node cannot send either.
	net.Restart(2)
	net.Crash(1)
	if _, err := t1.Request(context.Background(), 2, &wire.Ping{From: 1}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("crashed sender err = %v", err)
	}
	net.Restart(1)
	if _, err := t1.Request(context.Background(), 2, &wire.Ping{From: 1}); err != nil {
		t.Fatalf("after restart: %v", err)
	}
}

func TestInprocLatency(t *testing.T) {
	net := NewNetwork()
	t1, _ := net.Attach(1)
	t2, _ := net.Attach(2)
	t2.SetHandler(echoHandler(2))
	net.SetBaseLatency(10 * time.Millisecond)

	start := time.Now()
	if _, err := t1.Request(context.Background(), 2, &wire.Ping{From: 1}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("round trip took %v, want >= 20ms (two one-way hops)", elapsed)
	}
}

func TestInprocLinkLatencyOverride(t *testing.T) {
	net := NewNetwork()
	t1, _ := net.Attach(1)
	t2, _ := net.Attach(2)
	t3, _ := net.Attach(3)
	t2.SetHandler(echoHandler(2))
	t3.SetHandler(echoHandler(3))
	net.SetBaseLatency(1 * time.Millisecond)
	net.SetLinkLatency(1, 3, 20*time.Millisecond) // slow WAN link

	start := time.Now()
	if _, err := t1.Request(context.Background(), 3, &wire.Ping{From: 1}); err != nil {
		t.Fatal(err)
	}
	slow := time.Since(start)
	start = time.Now()
	if _, err := t1.Request(context.Background(), 2, &wire.Ping{From: 1}); err != nil {
		t.Fatal(err)
	}
	fast := time.Since(start)
	if slow < 40*time.Millisecond {
		t.Fatalf("WAN link took %v, want >= 40ms", slow)
	}
	if fast >= slow {
		t.Fatalf("LAN (%v) should be faster than WAN (%v)", fast, slow)
	}
}

func TestInprocContextCancel(t *testing.T) {
	net := NewNetwork()
	t1, _ := net.Attach(1)
	t2, _ := net.Attach(2)
	t2.SetHandler(echoHandler(2))
	net.SetBaseLatency(time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := t1.Request(ctx, 2, &wire.Ping{From: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestInprocHandlerError(t *testing.T) {
	net := NewNetwork()
	t1, _ := net.Attach(1)
	t2, _ := net.Attach(2)
	t2.SetHandler(func(context.Context, ktypes.NodeID, wire.Msg) (wire.Msg, error) {
		return nil, fmt.Errorf("handler exploded")
	})
	_, err := t1.Request(context.Background(), 2, &wire.Ping{From: 1})
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Msg != "handler exploded" {
		t.Fatalf("err = %v", err)
	}
}

func TestInprocClosedEndpoint(t *testing.T) {
	net := NewNetwork()
	t1, _ := net.Attach(1)
	t2, _ := net.Attach(2)
	t2.SetHandler(echoHandler(2))
	if err := t1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Request(context.Background(), 2, &wire.Ping{From: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed sender err = %v", err)
	}
	// Requests to a closed endpoint fail too.
	t3, _ := net.Attach(3)
	_ = t2.Close()
	if _, err := t3.Request(context.Background(), 2, &wire.Ping{From: 3}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("closed target err = %v", err)
	}
}

func TestInprocStats(t *testing.T) {
	net := NewNetwork()
	t1, _ := net.Attach(1)
	t2, _ := net.Attach(2)
	t2.SetHandler(echoHandler(2))
	for i := 0; i < 5; i++ {
		if _, err := t1.Request(context.Background(), 2, &wire.Ping{From: 1}); err != nil {
			t.Fatal(err)
		}
	}
	reqs, bytes := net.Stats()
	if reqs != 5 || bytes == 0 {
		t.Fatalf("stats = %d reqs, %d bytes", reqs, bytes)
	}
}

func TestInprocConcurrentRequests(t *testing.T) {
	net := NewNetwork()
	server, _ := net.Attach(1)
	var counter sync.Map
	server.SetHandler(func(_ context.Context, from ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
		counter.Store(from, true)
		return &wire.Pong{From: 1}, nil
	})
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		id := ktypes.NodeID(i + 2)
		tr, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := tr.Request(context.Background(), 1, &wire.Ping{From: id}); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

// --- TCP transport ----------------------------------------------------------

func newTCPPair(t *testing.T) (*TCP, *TCP) {
	t.Helper()
	a, err := NewTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCP(2, "127.0.0.1:0")
	if err != nil {
		_ = a.Close()
		t.Fatal(err)
	}
	a.AddPeer(2, b.Addr())
	b.AddPeer(1, a.Addr())
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

func TestTCPRequestResponse(t *testing.T) {
	a, b := newTCPPair(t)
	b.SetHandler(echoHandler(2))
	resp, err := a.Request(context.Background(), 2, &wire.Ping{From: 1})
	if err != nil {
		t.Fatal(err)
	}
	pong, ok := resp.(*wire.Pong)
	if !ok || pong.From != 2 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestTCPLargePayload(t *testing.T) {
	a, b := newTCPPair(t)
	b.SetHandler(echoHandler(2))
	data := make([]byte, 256*1024)
	for i := range data {
		data[i] = byte(i)
	}
	resp, err := a.Request(context.Background(), 2, &wire.CData{Data: data})
	if err != nil {
		t.Fatal(err)
	}
	cd, ok := resp.(*wire.CData)
	if !ok || len(cd.Data) != len(data) {
		t.Fatalf("resp = %T len %d", resp, len(cd.Data))
	}
	for i := range data {
		if cd.Data[i] != data[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}

func TestTCPFromIdentityPropagates(t *testing.T) {
	a, b := newTCPPair(t)
	got := make(chan ktypes.NodeID, 1)
	b.SetHandler(func(_ context.Context, from ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
		got <- from
		return &wire.Ack{}, nil
	})
	if _, err := a.Request(context.Background(), 2, &wire.Ping{From: 1}); err != nil {
		t.Fatal(err)
	}
	if from := <-got; from != 1 {
		t.Fatalf("from = %v", from)
	}
}

func TestTCPHandlerError(t *testing.T) {
	a, b := newTCPPair(t)
	b.SetHandler(func(context.Context, ktypes.NodeID, wire.Msg) (wire.Msg, error) {
		return nil, fmt.Errorf("nope")
	})
	_, err := a.Request(context.Background(), 2, &wire.Ping{From: 1})
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Msg != "nope" {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, _ := newTCPPair(t)
	if _, err := a.Request(context.Background(), 99, &wire.Ping{From: 1}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPPeerDown(t *testing.T) {
	a, err := NewTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddPeer(2, "127.0.0.1:1") // nothing listening
	if _, err := a.Request(context.Background(), 2, &wire.Ping{From: 1}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPConnReuseAndConcurrency(t *testing.T) {
	a, b := newTCPPair(t)
	b.SetHandler(echoHandler(2))
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := a.Request(context.Background(), 2, &wire.Ping{From: 1}); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPSurvivesPeerRestart(t *testing.T) {
	a, err := NewTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.SetHandler(echoHandler(2))
	a.AddPeer(2, b.Addr())
	if _, err := a.Request(context.Background(), 2, &wire.Ping{From: 1}); err != nil {
		t.Fatal(err)
	}
	// Restart b on the same address; a's pooled connection is now dead and
	// must be replaced transparently.
	addr := b.Addr()
	_ = b.Close()
	b2, err := NewTCP(2, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	b2.SetHandler(echoHandler(2))
	if _, err := a.Request(context.Background(), 2, &wire.Ping{From: 1}); err != nil {
		t.Fatalf("after restart: %v", err)
	}
}

func TestTCPClosedTransport(t *testing.T) {
	a, b := newTCPPair(t)
	b.SetHandler(echoHandler(2))
	_ = a.Close()
	if _, err := a.Request(context.Background(), 2, &wire.Ping{From: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	// Double close is fine.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPContextDeadline(t *testing.T) {
	a, b := newTCPPair(t)
	block := make(chan struct{})
	b.SetHandler(func(context.Context, ktypes.NodeID, wire.Msg) (wire.Msg, error) {
		<-block
		return &wire.Ack{}, nil
	})
	defer close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := a.Request(ctx, 2, &wire.Ping{From: 1}); err == nil {
		t.Fatal("expected deadline error")
	}
}
