package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
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
	entry, _ := entryOf(nodes[1], start)
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

// TestRemoteReadSurvivesLocalPressure: pages a remote reader fetched on
// demand stay in the node's storage hierarchy when local demand pressure
// pushes them out of RAM (demoted to disk, never dropped), and the next
// read of each sees the home's bytes.
func TestRemoteReadSurvivesLocalPressure(t *testing.T) {
	_, nodes := testCluster(t, 2, func(i int, cfg *Config) {
		if i == 1 {
			cfg.MemPages = 8
		}
	})
	ctx := context.Background()
	const pageSize = uint64(4096)
	start := mkRegion(t, nodes[0], 4*pageSize, region.Attrs{}, "")
	fill := make([]byte, 4*pageSize)
	for i := range fill {
		fill[i] = byte(i % 251)
	}
	wlc, err := nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 4 * pageSize}, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Write(wlc, start, fill); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Unlock(ctx, wlc); err != nil {
		t.Fatal(err)
	}
	readPage := func(i uint64) []byte {
		t.Helper()
		p := start.MustAdd(i * pageSize)
		lc, err := nodes[1].Lock(ctx, gaddr.Range{Start: p, Size: pageSize}, ktypes.LockRead, "")
		if err != nil {
			t.Fatalf("read lock page %d: %v", i, err)
		}
		got, err := nodes[1].Read(lc, p, pageSize)
		if err != nil {
			t.Fatalf("read page %d: %v", i, err)
		}
		if err := nodes[1].Unlock(ctx, lc); err != nil {
			t.Fatal(err)
		}
		return got
	}
	for i := uint64(0); i < 4; i++ {
		readPage(i)
	}

	// Local demand pressure: a node-2-homed region big enough to overflow
	// the 8-page RAM tier.
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
	for i := uint64(0); i < 4; i++ {
		if !nodes[1].Store().Contains(start.MustAdd(i * pageSize)) {
			t.Fatalf("demand page %d fell out of the storage hierarchy under local pressure", i)
		}
		if got := readPage(i); !bytes.Equal(got, fill[i*pageSize:(i+1)*pageSize]) {
			t.Fatalf("re-read of page %d after local pressure returned wrong bytes", i)
		}
	}
}
