//go:build defects

package khazana

// Known defects, each written as a test of the correct behaviour, so each
// fails until its fix lands. Tier-1 does not build the tag; `make
// defects` runs these tests and prints a line per test. A fix deletes the
// build tag from its test, which moves the test into tier-1.

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"khazana/internal/transport"
)

// TestTCPTimedOutRequesterLeavesNoHold: a caller that gives up on a
// blocked remote write lock over TCP must leave no hold behind at the
// home. Today the caller's deadline never reaches the handler: the
// handler stays parked on the page, grants it to the departed requester
// once the holder unlocks, and nobody ever releases that grant, so the
// home's own next write lock on its own page times out.
func TestTCPTimedOutRequesterLeavesNoHold(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	n1, err := StartNode(ctx, NodeConfig{ID: 1, ListenAddr: "127.0.0.1:0", StoreDir: filepath.Join(dir, "n1"), Genesis: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	tr2, err := transport.NewTCP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr2.AddPeer(1, n1.Addr())
	n2, err := StartNode(ctx, NodeConfig{ID: 2, Transport: tr2, StoreDir: filepath.Join(dir, "n2"), ClusterManager: 1, MapHome: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	n1.AddPeer(2, tr2.Addr())

	start, err := n1.Reserve(ctx, 4096, Attrs{}, "tcp")
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Allocate(ctx, start, "tcp"); err != nil {
		t.Fatal(err)
	}
	rng := Range{Start: start, Size: 4096}
	held, err := n1.Lock(ctx, rng, LockWrite, "tcp")
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	_, err = n2.Lock(short, rng, LockWrite, "tcp")
	cancel()
	if err == nil {
		t.Fatal("remote write lock granted while the home held the page")
	}
	t.Logf("remote lock under the home's hold: %v", err)
	if err := held.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	// Give a handler still parked on the page the moment to take it.
	time.Sleep(100 * time.Millisecond)

	again, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	lk, err := n1.Lock(again, rng, LockWrite, "tcp")
	if err != nil {
		t.Fatalf("home's own write lock after the remote caller gave up: %v", err)
	}
	_ = lk.Unlock(ctx)
}
