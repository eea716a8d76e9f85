package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/store"
	"khazana/internal/telemetry"
)

// TestDirtyPageEvictionPushesHome exercises §3.4: "When the disk cache
// wants to victimize a page, it must invoke the consistency protocol
// associated with the page to ... push any dirty data to remote nodes."
// A page whose release failed stays dirty; when storage pressure pushes
// it out of the node entirely, the eviction delivers it to the home, and
// the queued retry recognizes the delivery instead of clobbering it.
func TestDirtyPageEvictionPushesHome(t *testing.T) {
	net, nodes := testCluster(t, 2, func(i int, cfg *Config) {
		if i == 1 {
			cfg.MemPages = 4
			cfg.DiskPages = 4
		}
	})
	ctx := context.Background()
	// Release protocol: the home applies a pushed UpdateBatch, which is
	// what the eviction path sends.
	attrs := region.Attrs{Protocol: region.Release}
	start := mkRegion(t, nodes[0], 4096, attrs, "")

	// n2 writes while the home is down: the release queues and the page
	// stays dirty.
	lc, err := nodes[1].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Write(lc, start, []byte("evicted while dirty")); err != nil {
		t.Fatal(err)
	}
	net.Crash(1)
	if err := nodes[1].Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}
	if nodes[1].PendingRetries() != 1 {
		t.Fatalf("retries = %d", nodes[1].PendingRetries())
	}
	entry, _ := nodes[1].PageDir().Lookup(start)
	if !entry.Dirty {
		t.Fatal("page must stay dirty while the release is undelivered")
	}

	// Home returns; storage pressure on n2 forces the dirty page out of
	// the node. One single-page region at a time, so pinned pages never
	// exceed the 4-page RAM tier.
	net.Restart(1)
	for i := 0; i < 12 && nodes[1].Store().Contains(start); i++ {
		p := mkRegion(t, nodes[0], 4096, region.Attrs{Protocol: region.Release}, "")
		plc, err := nodes[1].Lock(ctx, gaddr.Range{Start: p, Size: 4096}, ktypes.LockWrite, "")
		if err != nil {
			t.Fatalf("pressure lock %d: %v", i, err)
		}
		if err := nodes[1].Write(plc, p, []byte(fmt.Sprint(i))); err != nil {
			t.Fatalf("pressure write %d: %v", i, err)
		}
		if err := nodes[1].Unlock(ctx, plc); err != nil {
			t.Fatal(err)
		}
	}
	// Whether it left via eviction or stays resident, the data must end
	// up intact at the home after the retry queue drains.
	nodes[1].RunRetries()
	if nodes[1].PendingRetries() != 0 {
		t.Fatalf("retries never drained: %d", nodes[1].PendingRetries())
	}
	rlc, err := nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := nodes[0].Read(rlc, start, 19)
	_ = nodes[0].Unlock(ctx, rlc)
	if string(got) != "evicted while dirty" {
		t.Fatalf("home data = %q (dirty update lost or clobbered)", got)
	}
}

// TestSpeculativeFramesEvictFirst pins down the read-ahead eviction
// contract at the RAM tier: under pressure, unconsumed speculative pages
// are reclaimed before any demand page, and they are dropped outright
// (speculative data is re-fetchable by definition) rather than demoted
// through the eviction callback like a demand page.
func TestSpeculativeFramesEvictFirst(t *testing.T) {
	var demoted []gaddr.Addr
	mem := store.NewMemStore(4, func(page gaddr.Addr, f *frame.Frame) error {
		demoted = append(demoted, page)
		return nil
	})
	pg := func(i uint64) gaddr.Addr { return gaddr.FromUint64(i * 4096) }
	put := func(i uint64) {
		f := frame.Copy([]byte{byte(i)})
		if err := mem.Put(pg(i), f); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		f.Release()
	}
	put(0)
	put(1)
	for i := uint64(2); i < 4; i++ {
		f := frame.Copy([]byte{byte(i)})
		if !mem.PutSpeculative(pg(i), f) {
			t.Fatalf("speculative put %d refused with free capacity", i)
		}
		f.Release()
	}

	// Two more demand pages into the full store: the two speculative
	// pages must be the victims, with no demotion callback.
	put(4)
	put(5)
	if len(demoted) != 0 {
		t.Fatalf("demand pages demoted while speculative pages were reclaimable: %v", demoted)
	}
	if mem.Contains(pg(2)) || mem.Contains(pg(3)) {
		t.Fatal("speculative pages must be victimized before any demand page")
	}

	// A third demand page finds only demand pages resident: now the LRU
	// demand page demotes through the callback.
	put(6)
	if len(demoted) != 1 || demoted[0] != pg(0) {
		t.Fatalf("demoted = %v, want the LRU demand page %v", demoted, pg(0))
	}
}

// TestWastedPrefetchNeverEvictsDemandPage proves the other half of the
// contract: a speculative store into a store full of demand pages is
// refused (returns false) instead of displacing anything, and a
// speculative page consumed by a demand Get is promoted — it stops being
// reclaimable as read-ahead waste.
func TestWastedPrefetchNeverEvictsDemandPage(t *testing.T) {
	mem := store.NewMemStore(2, func(page gaddr.Addr, f *frame.Frame) error {
		t.Fatalf("page %v demoted; this test must never evict a demand page", page)
		return nil
	})
	pg := func(i uint64) gaddr.Addr { return gaddr.FromUint64(i * 4096) }
	for i := uint64(0); i < 2; i++ {
		f := frame.Copy([]byte{byte(i)})
		if err := mem.Put(pg(i), f); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		f.Release()
	}

	f := frame.Copy([]byte{2})
	if mem.PutSpeculative(pg(2), f) {
		t.Fatal("speculative store must be refused when only demand pages are resident")
	}
	f.Release()
	if !mem.Contains(pg(0)) || !mem.Contains(pg(1)) {
		t.Fatal("demand pages lost to a wasted prefetch")
	}

	// Free a slot, land a speculative page, and consume it: the demand
	// Get promotes it, so the next wasted prefetch is refused again.
	mem.Delete(pg(1))
	f = frame.Copy([]byte{2})
	if !mem.PutSpeculative(pg(2), f) {
		t.Fatal("speculative store refused with a free slot")
	}
	f.Release()
	got, ok := mem.Get(pg(2))
	if !ok {
		t.Fatal("speculative page vanished before consumption")
	}
	got.Release()
	if mem.Speculative(pg(2)) {
		t.Fatal("a consumed speculative page must be promoted to demand status")
	}
	f = frame.Copy([]byte{3})
	if mem.PutSpeculative(pg(3), f) {
		t.Fatal("speculative store must be refused after the previous grant was promoted")
	}
	f.Release()
}

// TestPrefetchPressureReclaimsSpeculativeFirst runs the contract end to
// end through the grant pipeline: a remote sequential reader accumulates
// speculative grants, local demand pressure reclaims exactly those
// speculative frames (dropped, not demoted to disk) while the demand
// pages survive in the hierarchy, and the reader then recovers from the
// lost prefetch by refetching — counting it as waste, never reading
// stale or zero bytes.
func TestPrefetchPressureReclaimsSpeculativeFirst(t *testing.T) {
	_, nodes := testCluster(t, 2, func(i int, cfg *Config) {
		if i == 1 {
			cfg.MemPages = 8
		}
	})
	ctx := context.Background()
	const pageSize = uint64(4096)
	start := mkRegion(t, nodes[0], 8*pageSize, region.Attrs{}, "")
	fill := make([]byte, 8*pageSize)
	for i := range fill {
		fill[i] = byte(i % 251)
	}
	wlc, err := nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 8 * pageSize}, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Write(wlc, start, fill); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Unlock(ctx, wlc); err != nil {
		t.Fatal(err)
	}

	// Three sequential single-page reads prime the home's stream tracker;
	// the third reply piggybacks speculative grants for the next pages.
	readPage := func(n *Node, i uint64) []byte {
		t.Helper()
		p := start.MustAdd(i * pageSize)
		lc, err := n.Lock(ctx, gaddr.Range{Start: p, Size: pageSize}, ktypes.LockRead, "")
		if err != nil {
			t.Fatalf("read lock page %d: %v", i, err)
		}
		got, err := n.Read(lc, p, pageSize)
		if err != nil {
			t.Fatalf("read page %d: %v", i, err)
		}
		if err := n.Unlock(ctx, lc); err != nil {
			t.Fatal(err)
		}
		return got
	}
	for i := uint64(0); i < 3; i++ {
		readPage(nodes[1], i)
	}
	spec := start.MustAdd(3 * pageSize)
	if !nodes[1].Store().Mem().Speculative(spec) {
		t.Fatal("sequential reads did not leave a speculative grant for the next page")
	}

	// Local demand pressure: a node-2-homed region big enough to overflow
	// the 8-page RAM tier. The speculative frames must go first —
	// dropped from the node entirely, never demoted to disk.
	local := mkRegion(t, nodes[1], 8*pageSize, region.Attrs{}, "")
	llc, err := nodes[1].Lock(ctx, gaddr.Range{Start: local, Size: 8 * pageSize}, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Write(llc, local, make([]byte, 8*pageSize)); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Unlock(ctx, llc); err != nil {
		t.Fatal(err)
	}
	if nodes[1].Store().Contains(spec) {
		t.Fatal("wasted speculative page must be dropped outright, not kept or demoted to disk")
	}
	for i := uint64(0); i < 3; i++ {
		if !nodes[1].Store().Contains(start.MustAdd(i * pageSize)) {
			t.Fatalf("demand page %d fell out of the storage hierarchy under speculative pressure", i)
		}
	}

	// The reader recovers from the reclaimed prefetch: the next read
	// refetches (counted as prefetch waste) and sees the real bytes.
	got := readPage(nodes[1], 3)
	want := fill[3*pageSize : 3*pageSize+pageSize]
	if !bytes.Equal(got, want) {
		t.Fatal("refetch after a reclaimed prefetch returned wrong bytes")
	}
	var waste uint64
	for _, cs := range nodes[1].MetricsSnapshot().Counters {
		if cs.Name == telemetry.MetricPrefetchWaste {
			waste = cs.Value
		}
	}
	if waste == 0 {
		t.Fatal("a reclaimed prefetch consumed on the demand path must count as waste")
	}
}
