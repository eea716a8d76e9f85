package core

// Tests for the one-way clean release over real sockets: Unlock returns
// once the ReleaseBatch is written, so the release may reach the home
// after the releaser's next request, on the other mux connection. A grant
// that conflicts with it waits at the home until it lands.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/telemetry"
	"khazana/internal/transport"
	"khazana/internal/wire"
)

// releaseWatch counts the clean ReleaseBatches a node sends and the ones
// among them that came back with a reply.
type releaseWatch struct {
	transport.Transport
	clean, replied atomic.Int64
}

// SetTelemetry keeps the wrapped transport's instruments in the node's
// registry.
func (w *releaseWatch) SetTelemetry(reg *telemetry.Registry) {
	w.Transport.(transport.TelemetrySetter).SetTelemetry(reg)
}

func (w *releaseWatch) Request(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	resp, err := w.Transport.Request(ctx, to, m)
	if rb, ok := m.(*wire.ReleaseBatch); ok {
		dirty := false
		for _, it := range rb.Items {
			dirty = dirty || it.Dirty
		}
		if !dirty {
			w.clean.Add(1)
			if resp != nil {
				w.replied.Add(1)
			}
		}
	}
	return resp, err
}

// checkOneWay fails unless w's node sent want clean releases and none of
// them got a reply.
func checkOneWay(t *testing.T, w *releaseWatch, want int64) {
	t.Helper()
	if clean, replied := w.clean.Load(), w.replied.Load(); clean != want || replied != 0 {
		t.Fatalf("%d clean releases sent, %d replied; want %d, none replied", clean, replied, want)
	}
}

// tcpCluster is testCluster over loopback TCP; node i's transport is
// wrapped in a releaseWatch, which the second result returns.
func tcpCluster(t *testing.T, count int) ([]*transport.TCP, []*releaseWatch, []*Node) {
	t.Helper()
	trs := make([]*transport.TCP, count)
	watches := make([]*releaseWatch, count)
	for i := range trs {
		tr, err := transport.NewTCP(ktypes.NodeID(i+1), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = tr.Close() })
		trs[i] = tr
		watches[i] = &releaseWatch{Transport: tr}
	}
	for _, a := range trs {
		for _, b := range trs {
			if a != b {
				a.AddPeer(b.Self(), b.Addr())
			}
		}
	}
	_, nodes := testCluster(t, count, func(i int, cfg *Config) { cfg.Transport = watches[i] })
	return trs, watches, nodes
}

// TestOneWayReadUnlockThenWriteLock: a node that read-unlocks pages and
// at once write-locks them gets the grant and reads its own last write,
// even when the write request overtakes the one-way read release.
func TestOneWayReadUnlockThenWriteLock(t *testing.T) {
	_, watches, nodes := tcpCluster(t, 2)
	home, n2 := nodes[0], nodes[1]
	start := mkRegion(t, home, 4*4096, region.Attrs{}, "alice")
	home.RingSettle()
	rng := gaddr.Range{Start: start, Size: 4 * 4096}
	const rounds = 100
	for i := range rounds {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		rl, err := n2.Lock(ctx, rng, ktypes.LockRead, "alice")
		if err != nil {
			t.Fatalf("round %d: read lock: %v", i, err)
		}
		got, err := n2.Read(rl, start, 8)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("round%03d", i-1); i > 0 && string(got) != want {
			t.Fatalf("round %d read %q, want %q", i, got, want)
		}
		if err := n2.Unlock(ctx, rl); err != nil {
			t.Fatal(err)
		}
		wl, err := n2.Lock(ctx, rng, ktypes.LockWrite, "alice")
		if err != nil {
			t.Fatalf("round %d: write lock right after the read unlock: %v", i, err)
		}
		if err := n2.Write(wl, start, []byte(fmt.Sprintf("round%03d", i))); err != nil {
			t.Fatal(err)
		}
		if err := n2.Unlock(ctx, wl); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
	checkOneWay(t, watches[1], rounds)
	if n := n2.PendingRetries(); n != 0 {
		t.Fatalf("%d releases queued for retry", n)
	}
}

// TestOneWayReleaseGrantsBlockedWriter: a remote writer that waits at the
// home on another node's read hold is granted once that node's one-way
// release lands.
func TestOneWayReleaseGrantsBlockedWriter(t *testing.T) {
	_, watches, nodes := tcpCluster(t, 3)
	home, reader, writer := nodes[0], nodes[1], nodes[2]
	start := mkRegion(t, home, 2*4096, region.Attrs{}, "alice")
	home.RingSettle()
	rng := gaddr.Range{Start: start, Size: 2 * 4096}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := range 20 {
		rl, err := reader.Lock(ctx, rng, ktypes.LockRead, "alice")
		if err != nil {
			t.Fatal(err)
		}
		granted := make(chan error, 1)
		go func() {
			wl, err := writer.Lock(ctx, rng, ktypes.LockWrite, "alice")
			if err == nil {
				err = writer.Unlock(ctx, wl)
			}
			granted <- err
		}()
		select {
		case err := <-granted:
			t.Fatalf("round %d: write granted under a read hold (%v)", i, err)
		case <-time.After(20 * time.Millisecond):
		}
		if err := reader.Unlock(ctx, rl); err != nil {
			t.Fatal(err)
		}
		if err := <-granted; err != nil {
			t.Fatalf("round %d: blocked writer after the one-way release: %v", i, err)
		}
	}
	checkOneWay(t, watches[1], 20)
}

// TestOneWaySendToDeadHomeQueuesRetry: a one-way release returns only once
// it is written, so one sent after the releaser saw its connections to the
// home die fails there and is queued for retry (§3.5), not lost. (One
// written into a socket whose death is not seen yet is lost: DESIGN.md,
// "One-way clean release".)
func TestOneWaySendToDeadHomeQueuesRetry(t *testing.T) {
	trs, _, nodes := tcpCluster(t, 2)
	home, n2 := nodes[0], nodes[1]
	start := mkRegion(t, home, 4096, region.Attrs{}, "alice")
	home.RingSettle()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rl, err := n2.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := trs[0].Close(); err != nil {
		t.Fatal(err)
	}
	conns := n2.Telemetry().Gauge(telemetry.MetricTransportConnsOpen)
	for conns.Load() > 0 {
		if ctx.Err() != nil {
			t.Fatalf("%d connections still open to the closed home", conns.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if err := n2.Unlock(ctx, rl); err != nil {
		t.Fatal(err)
	}
	if n2.PendingRetries() == 0 {
		t.Fatal("a clean release to a dead home was not queued for retry")
	}
}
