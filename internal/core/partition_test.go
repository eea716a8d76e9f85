package core

import (
	"context"
	"testing"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
)

// Partitions differ from crashes: both sides keep running and the link
// may heal (§1: "some or all of the nodes may be connected via slow or
// intermittent WAN links"). These tests inject link cuts rather than
// process failures.

func TestPartitionedClientFailsThenHeals(t *testing.T) {
	net, nodes := testCluster(t, 3)
	ctx := context.Background()
	start := mkRegion(t, nodes[0], 4096, region.Attrs{}, "")

	net.Partition(1, 3)
	shortCtx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	_, err := nodes[2].Lock(shortCtx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
	cancel()
	if err == nil {
		t.Fatal("lock across a cut link should fail")
	}
	net.Heal(1, 3)
	lc, err := nodes[2].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
	if err != nil {
		t.Fatalf("lock after heal: %v", err)
	}
	_ = nodes[2].Unlock(ctx, lc)
}

func TestPartitionDuringInvalidationStaysConsistent(t *testing.T) {
	// A sharer partitioned away during a CREW invalidation keeps a stale
	// local copy, but CREW correctness survives: its next read lock must
	// go through the home, which supplies fresh data.
	net, nodes := testCluster(t, 3)
	ctx := context.Background()
	start := mkRegion(t, nodes[0], 4096, region.Attrs{}, "")

	// n3 caches v1.
	lc, _ := nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "")
	_ = nodes[0].Write(lc, start, []byte("v1"))
	_ = nodes[0].Unlock(ctx, lc)
	rlc, err := nodes[2].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
	if err != nil {
		t.Fatal(err)
	}
	_ = nodes[2].Unlock(ctx, rlc)

	// Cut n1-n3; n2 writes v2. The invalidation to n3 is lost.
	net.Partition(1, 3)
	wlc, err := nodes[1].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	_ = nodes[1].Write(wlc, start, []byte("v2"))
	if err := nodes[1].Unlock(ctx, wlc); err != nil {
		t.Fatal(err)
	}
	// n3 still holds the stale bytes locally...
	if data, ok := storedCopy(nodes[2], start); !ok || string(data[:2]) != "v1" {
		t.Fatalf("expected stale local copy at n3, got %q, %v", data[:2], ok)
	}
	// ...but a locked read after the heal observes v2 (the lock goes
	// through the home; there is no unsynchronized fast path).
	net.Heal(1, 3)
	rlc2, err := nodes[2].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := nodes[2].Read(rlc2, start, 2)
	_ = nodes[2].Unlock(ctx, rlc2)
	if string(got) != "v2" {
		t.Fatalf("read after heal = %q, want v2", got)
	}
}

func TestPartitionedSharerPrunedFromCopyset(t *testing.T) {
	// When the parallel invalidation fan-out cannot reach a sharer, the
	// home must not keep (or regain) that sharer's copyset entry: an
	// unreachable node still holding a stale copy is not a valid replica
	// source until it re-fetches through the home.
	net, nodes := testCluster(t, 4)
	ctx := context.Background()
	start := mkRegion(t, nodes[0], 4096, region.Attrs{}, "")

	// Seed v1 and cache it on n3 and n4, putting both in the copyset.
	lc, err := nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	_ = nodes[0].Write(lc, start, []byte("v1"))
	_ = nodes[0].Unlock(ctx, lc)
	for _, n := range nodes[2:] {
		rlc, err := n.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
		if err != nil {
			t.Fatal(err)
		}
		_ = n.Unlock(ctx, rlc)
	}
	entry, _ := entryOf(nodes[0], start)
	if !entry.InCopyset(3) || !entry.InCopyset(4) {
		t.Fatalf("sharers missing from copyset before the cut: %v", entry.Copyset)
	}

	// Cut home<->n3 and write from n2. The write grant fans invalidations
	// out to n3 (fails: pruned) and n4 (succeeds: dropped by the reset).
	net.Partition(1, 3)
	wlc, err := nodes[1].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	entry, _ = entryOf(nodes[0], start)
	if entry.InCopyset(3) || entry.InCopyset(4) {
		t.Fatalf("stale sharers survived the write grant: %v", entry.Copyset)
	}
	if !entry.InCopyset(2) {
		t.Fatalf("writer should hold the only valid copy: %v", entry.Copyset)
	}
	_ = nodes[1].Write(wlc, start, []byte("v2"))
	if err := nodes[1].Unlock(ctx, wlc); err != nil {
		t.Fatal(err)
	}
	entry, _ = entryOf(nodes[0], start)
	if entry.InCopyset(3) {
		t.Fatalf("partitioned sharer crept back into the copyset: %v", entry.Copyset)
	}

	// After the heal, n3's next locked read goes through the home: it
	// observes v2 and legitimately rejoins the copyset.
	net.Heal(1, 3)
	rlc, err := nodes[2].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := nodes[2].Read(rlc, start, 2)
	_ = nodes[2].Unlock(ctx, rlc)
	if string(got) != "v2" {
		t.Fatalf("read after heal = %q, want v2", got)
	}
	entry, _ = entryOf(nodes[0], start)
	if !entry.InCopyset(3) {
		t.Fatalf("healed sharer should rejoin the copyset: %v", entry.Copyset)
	}
}

func TestPartitionEventualDivergesThenConverges(t *testing.T) {
	net, nodes := testCluster(t, 3)
	ctx := context.Background()
	attrs := region.Attrs{Protocol: region.Eventual}
	start := mkRegion(t, nodes[0], 4096, attrs, "")

	// Seed replicas on all nodes.
	for _, n := range nodes {
		lc, err := n.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
		if err != nil {
			t.Fatal(err)
		}
		_ = n.Unlock(ctx, lc)
	}
	// Partition n3 from the home and write on n2: n3 misses the gossip
	// and serves stale reads — by design (§3.3).
	net.Partition(1, 3)
	wlc, _ := nodes[1].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "")
	_ = nodes[1].Write(wlc, start, []byte("fresh"))
	_ = nodes[1].Unlock(ctx, wlc)

	rlc, err := nodes[2].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
	if err != nil {
		t.Fatalf("partitioned eventual read must still serve locally: %v", err)
	}
	stale, _ := nodes[2].Read(rlc, start, 5)
	_ = nodes[2].Unlock(ctx, rlc)
	if string(stale) == "fresh" {
		t.Fatal("n3 cannot have seen the update across the cut link")
	}
	// Heal; the next write's gossip round brings n3 up to date.
	net.Heal(1, 3)
	wlc2, _ := nodes[1].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "")
	_ = nodes[1].Write(wlc2, start, []byte("final"))
	_ = nodes[1].Unlock(ctx, wlc2)

	deadline := time.Now().Add(2 * time.Second)
	for {
		rlc, err := nodes[2].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := nodes[2].Read(rlc, start, 5)
		_ = nodes[2].Unlock(ctx, rlc)
		if string(got) == "final" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("n3 never converged: %q", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestIsolatedNodeRejoins(t *testing.T) {
	net, nodes := testCluster(t, 3)
	ctx := context.Background()
	start := mkRegion(t, nodes[0], 4096, region.Attrs{}, "")

	// The descriptor partition may have made node 3 a ring owner of the
	// region's bucket, in which case it can answer the lookup from its own
	// table even while cut off. Drop that copy (after announces settle)
	// so the test still exercises a lookup that must leave the node.
	nodes[0].RingSettle()
	net.Isolate(3)
	nodes[2].RingTable().Remove(start)
	shortCtx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	if _, err := nodes[2].GetAttr(shortCtx, start); err == nil {
		t.Fatal("isolated node should fail to resolve a foreign region")
	}
	cancel()
	net.HealAll()
	if _, err := nodes[2].GetAttr(ctx, start); err != nil {
		t.Fatalf("after heal-all: %v", err)
	}
}
