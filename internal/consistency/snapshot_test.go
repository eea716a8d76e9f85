package consistency

import (
	"context"
	"testing"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
)

// snapRead performs a snapshot read with a watchdog: the whole point of
// the snapshot path is that it never waits on writers, so a hang here is
// a bug, not a slow test.
func snapRead(t *testing.T, h *testHost, d *region.Descriptor, epoch uint64, pages ...gaddr.Addr) ([]SnapPage, uint64) {
	t.Helper()
	type result struct {
		snaps []SnapPage
		at    uint64
		err   error
	}
	ch := make(chan result, 1)
	go func() {
		snaps, at, err := h.cm(d).SnapshotRead(context.Background(), d, pages, epoch)
		ch <- result{snaps, at, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("%v snapshot read: %v", h.id, r.err)
		}
		return r.snaps, r.at
	case <-time.After(10 * time.Second):
		t.Fatalf("%v snapshot read blocked — the snapshot path must never wait", h.id)
		return nil, 0
	}
}

// releaseSnaps drops the frames a snapshot read handed us.
func releaseSnaps(snaps []SnapPage) {
	for _, sp := range snaps {
		sp.Frame.Release()
	}
}

func TestCREWSnapshotNeverBlocksOnWriter(t *testing.T) {
	d := testDesc(region.CREW)
	hosts := cluster(t, 3, d)
	page := d.Range.Start
	ctx := context.Background()

	lockWrite(t, hosts[1], d, page, func(b []byte) { copy(b, "committed-v1") })

	// Node 2 takes the exclusive write lock and mutates its copy but does
	// NOT release: under plain CREW every reader would now wait.
	if err := acquirePage(ctx, hosts[1].cm(d), d, page, ktypes.LockWrite); err != nil {
		t.Fatal(err)
	}
	dirty := snapshot(hosts[1], d, page)
	copy(dirty, "uncommitted!")
	if err := storeBytes(hosts[1], page, dirty); err != nil {
		t.Fatal(err)
	}

	// Snapshot reads — remote (over the wire) and home-local — complete
	// immediately and observe the last committed version.
	for _, h := range []*testHost{hosts[2], hosts[0]} {
		snaps, _ := snapRead(t, h, d, 0, page)
		if got := string(snaps[0].Frame.Bytes()[:12]); got != "committed-v1" {
			t.Errorf("%v snapshot under writer = %q, want committed-v1", h.id, got)
		}
		if snaps[0].Version != 1 {
			t.Errorf("%v snapshot version = %d, want 1", h.id, snaps[0].Version)
		}
		releaseSnaps(snaps)
	}

	if err := releasePage(ctx, hosts[1].cm(d), d, page, ktypes.LockWrite, true); err != nil {
		t.Fatal(err)
	}

	// After the release the write is committed and snapshots observe it.
	snaps, _ := snapRead(t, hosts[2], d, 0, page)
	if got := string(snaps[0].Frame.Bytes()[:12]); got != "uncommitted!" {
		t.Errorf("snapshot after release = %q, want uncommitted!", got)
	}
	if snaps[0].Version != 2 {
		t.Errorf("snapshot version after release = %d, want 2", snaps[0].Version)
	}
	releaseSnaps(snaps)
}

func TestCREWSnapshotBypassesLockTable(t *testing.T) {
	d := testDesc(region.CREW)
	hosts := cluster(t, 3, d)
	page := d.Range.Start
	ctx := context.Background()
	glocks := &LockTable{tableOf(hosts[0], d)} // the home's page table: its records hold the global locks

	lockWrite(t, hosts[1], d, page, func(b []byte) { copy(b, "base") })

	// Writer parks on the page; the manager's global lock table would
	// refuse any reader outright.
	if err := acquirePage(ctx, hosts[1].cm(d), d, page, ktypes.LockWrite); err != nil {
		t.Fatal(err)
	}
	if glocks.TryAcquire(page, ktypes.LockRead) {
		t.Fatal("lock-table read admitted under an exclusive writer — test premise broken")
	}

	// The snapshot path still answers, and it never registers in the
	// manager's lock table as a reader.
	snaps, _ := snapRead(t, hosts[2], d, 0, page)
	releaseSnaps(snaps)
	if n := glocks.Readers(page); n != 0 {
		t.Errorf("global lock table shows %d readers after snapshot, want 0", n)
	}

	if err := releasePage(ctx, hosts[1].cm(d), d, page, ktypes.LockWrite, true); err != nil {
		t.Fatal(err)
	}
}

func TestCREWSnapshotPinnedEpochStable(t *testing.T) {
	d := testDesc(region.CREW)
	hosts := cluster(t, 3, d)
	page := d.Range.Start

	write := func(s string) {
		lockWrite(t, hosts[1], d, page, func(b []byte) { copy(b, s) })
	}
	write("version-1")

	// Pin a cut now (epoch 0 lets the home choose the current one).
	snaps, pinned := snapRead(t, hosts[2], d, 0, page)
	if got := string(snaps[0].Frame.Bytes()[:9]); got != "version-1" {
		t.Fatalf("initial snapshot = %q", got)
	}
	releaseSnaps(snaps)
	if pinned == 0 {
		t.Fatal("home returned epoch 0 for an epoch-0 request")
	}

	write("version-2")
	write("version-3")

	// Re-reading at the pinned epoch still observes version-1: the chain
	// retains it, so the cut is stable across later publishes.
	snaps, at := snapRead(t, hosts[2], d, pinned, page)
	if at != pinned {
		t.Errorf("pinned snapshot returned epoch %d, want %d", at, pinned)
	}
	if got := string(snaps[0].Frame.Bytes()[:9]); got != "version-1" {
		t.Errorf("pinned snapshot = %q, want version-1", got)
	}
	if snaps[0].Version != 1 {
		t.Errorf("pinned snapshot version = %d, want 1", snaps[0].Version)
	}
	releaseSnaps(snaps)

	// A fresh cut observes the newest committed version.
	snaps, _ = snapRead(t, hosts[2], d, 0, page)
	if got := string(snaps[0].Frame.Bytes()[:9]); got != "version-3" {
		t.Errorf("fresh snapshot = %q, want version-3", got)
	}
	releaseSnaps(snaps)
}

func TestCREWTrimPublishedSparesPinnedVersions(t *testing.T) {
	d := testDesc(region.CREW)
	hosts := cluster(t, 2, d)
	page := d.Range.Start
	crew := hosts[0].cm(d).(*CrewCM)

	lockWrite(t, hosts[1], d, page, func(b []byte) { copy(b, "old-pin") })

	// Pin the old version the way the store reclaimer would see it: a
	// snapshot context holding the frame.
	snaps, _ := snapRead(t, hosts[0], d, 0, page)
	pinned := snaps[0].Frame

	lockWrite(t, hosts[1], d, page, func(b []byte) { copy(b, "new-one") })
	lockWrite(t, hosts[1], d, page, func(b []byte) { copy(b, "new-two") })

	// The pressure hook gives back unpinned non-latest versions; the
	// pinned frame and the latest survive.
	if freed := crew.TrimPublished(); freed == 0 {
		t.Error("TrimPublished reclaimed nothing with unpinned old versions retained")
	}
	if got := string(pinned.Bytes()[:7]); got != "old-pin" {
		t.Errorf("pinned frame after trim = %q, want old-pin", got)
	}
	latest, _ := snapRead(t, hosts[0], d, 0, page)
	if got := string(latest[0].Frame.Bytes()[:7]); got != "new-two" {
		t.Errorf("latest after trim = %q, want new-two", got)
	}
	releaseSnaps(latest)
	releaseSnaps(snaps)
}

func TestReleaseSnapshotRead(t *testing.T) {
	d := testDesc(region.Release)
	hosts := cluster(t, 3, d)
	page := d.Range.Start

	lockWrite(t, hosts[1], d, page, func(b []byte) { copy(b, "rc-commit") })

	snaps, _ := snapRead(t, hosts[2], d, 0, page)
	if got := string(snaps[0].Frame.Bytes()[:9]); got != "rc-commit" {
		t.Errorf("release snapshot = %q, want rc-commit", got)
	}
	releaseSnaps(snaps)
}

func TestEventualSnapshotReadIsLocal(t *testing.T) {
	d := testDesc(region.Eventual)
	hosts := cluster(t, 3, d)
	page := d.Range.Start

	lockWrite(t, hosts[1], d, page, func(b []byte) { copy(b, "ev-data") })
	// Populate node 3's replica, then snapshot it without wire traffic.
	_ = lockRead(t, hosts[2], d, page)

	snaps, _ := snapRead(t, hosts[2], d, 0, page)
	if got := string(snaps[0].Frame.Bytes()[:7]); got != "ev-data" {
		t.Errorf("eventual snapshot = %q, want ev-data", got)
	}
	releaseSnaps(snaps)
}
