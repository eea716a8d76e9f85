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

// TestReserveSurvivesMapHomeCrash: reserving address space must not
// depend on the node that created the address map. §3.1 stores the map
// inside Khazana, where it can be replicated like any region, yet the map
// region lives only on node 1: with node 1 down, no node can reserve.
func TestReserveSurvivesMapHomeCrash(t *testing.T) {
	c, err := NewCluster(3, WithStoreDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Crash(1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start, err := c.Node(2).Reserve(ctx, 4096, Attrs{}, "")
	if err != nil {
		t.Fatalf("reserve with the map home down: %v", err)
	}
	if err := c.Node(2).Allocate(ctx, start, ""); err != nil {
		t.Fatalf("allocate with the map home down: %v", err)
	}
	if _, err := c.Node(3).GetAttr(ctx, start); err != nil {
		t.Fatalf("a third node cannot find the region reserved while the map home was down: %v", err)
	}
}

// TestUnreserveWithMapHomeDown: an Unreserve issued while the map home is
// down must either leave the region whole or finish the removal once the
// map home returns (§3.5 retries release-side work in the background).
// Today it tears the region down at its home and then fails at the map
// removal, so the map keeps naming a region that no longer exists.
func TestUnreserveWithMapHomeDown(t *testing.T) {
	c, err := NewCluster(3, WithStoreDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start, err := c.Node(2).Reserve(ctx, 4096, Attrs{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Node(2).Allocate(ctx, start, ""); err != nil {
		t.Fatal(err)
	}
	c.Crash(1)
	if err := c.Node(2).Unreserve(ctx, start, ""); err != nil {
		t.Fatalf("unreserve with the map home down: %v", err)
	}
	c.Restart(1)
	c.Node(2).Core().RunRetries()
	if d, err := c.Node(3).GetAttr(ctx, start); err == nil {
		t.Fatalf("after the map home returned, the unreserved region still resolves: %v", d.Range)
	}
}
