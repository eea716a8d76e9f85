package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/security"
	"khazana/internal/wire"
)

func TestMigrateRegionHandoff(t *testing.T) {
	_, nodes := testCluster(t, 3)
	ctx := context.Background()
	start := mkRegion(t, nodes[0], 2*4096, region.Attrs{}, "admin")

	lc, err := nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 8192}, ktypes.LockWrite, "admin")
	if err != nil {
		t.Fatal(err)
	}
	_ = nodes[0].Write(lc, start, []byte("migrating data"))
	_ = nodes[0].Write(lc, start.MustAdd(4096), []byte("second page"))
	if err := nodes[0].Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}

	if err := nodes[0].MigrateRegion(ctx, start, 3, "admin"); err != nil {
		t.Fatal(err)
	}
	// The new primary home is node 3 everywhere that matters.
	d := nodes[2].authDescByStart(start)
	if d == nil {
		t.Fatal("new home lacks the descriptor")
	}
	if home, _ := d.PrimaryHome(); home != 3 {
		t.Fatalf("new primary = %v", home)
	}
	// The map records the move so cold lookups find node 3.
	entry, _, err := nodes[1].AddressMap().Lookup(ctx, start)
	if err != nil {
		t.Fatal(err)
	}
	if len(entry.Homes) == 0 || entry.Homes[0] != 3 {
		t.Fatalf("map homes = %v", entry.Homes)
	}
	// Data survives: read via a node with a cold cache.
	rlc, err := nodes[1].Lock(ctx, gaddr.Range{Start: start, Size: 8192}, ktypes.LockRead, "admin")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := nodes[1].Read(rlc, start, 14)
	got2, _ := nodes[1].Read(rlc, start.MustAdd(4096), 11)
	_ = nodes[1].Unlock(ctx, rlc)
	if string(got) != "migrating data" || string(got2) != "second page" {
		t.Fatalf("post-migration read %q / %q", got, got2)
	}
	// Writes now serialize at node 3.
	wlc, err := nodes[1].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "admin")
	if err != nil {
		t.Fatal(err)
	}
	_ = nodes[1].Write(wlc, start, []byte("after move"))
	_ = nodes[1].Unlock(ctx, wlc)
	if data, ok := nodes[2].Store().GetCopy(start); !ok || string(data[:10]) != "after move" {
		t.Fatalf("new home store = %q, %v", data[:10], ok)
	}
}

func TestMigrateStaleClientRecovers(t *testing.T) {
	_, nodes := testCluster(t, 3)
	ctx := context.Background()
	start := mkRegion(t, nodes[0], 4096, region.Attrs{}, "admin")
	lc, _ := nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "admin")
	_ = nodes[0].Write(lc, start, []byte("payload"))
	_ = nodes[0].Unlock(ctx, lc)

	// Node 2 caches the pre-migration descriptor.
	if _, err := nodes[1].GetAttr(ctx, start); err != nil {
		t.Fatal(err)
	}
	if err := nodes[2].MigrateRegion(ctx, start, 3, "admin"); err != nil {
		t.Fatal(err)
	}
	// Node 2's next lock uses the stale descriptor, gets ErrNotHome from
	// node 1, refreshes, and succeeds against node 3 (§3.2).
	rlc, err := nodes[1].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "admin")
	if err != nil {
		t.Fatalf("stale client lock after migration: %v", err)
	}
	got, _ := nodes[1].Read(rlc, start, 7)
	_ = nodes[1].Unlock(ctx, rlc)
	if string(got) != "payload" {
		t.Fatalf("stale client read %q", got)
	}
}

func TestMigrateValidation(t *testing.T) {
	_, nodes := testCluster(t, 2)
	ctx := context.Background()
	attrs := region.Attrs{ACL: security.Private("admin")}
	start := mkRegion(t, nodes[0], 4096, attrs, "admin")

	// Non-admin principals cannot migrate.
	if err := nodes[0].MigrateRegion(ctx, start, 2, "mallory"); err == nil {
		t.Fatal("non-admin migrate should fail")
	}
	// Unknown targets are rejected.
	if err := nodes[0].MigrateRegion(ctx, start, 99, "admin"); err == nil {
		t.Fatal("unknown target should fail")
	}
	// Migrating to self is a no-op.
	if err := nodes[0].MigrateRegion(ctx, start, 1, "admin"); err != nil {
		t.Fatal(err)
	}
	// Busy regions refuse migration.
	lc, err := nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "admin")
	if err != nil {
		t.Fatal(err)
	}
	err = nodes[0].MigrateRegion(ctx, start, 2, "admin")
	if !errors.Is(err, ErrBusyRegion) {
		t.Fatalf("busy migrate = %v", err)
	}
	_ = nodes[0].Unlock(ctx, lc)
	if err := nodes[0].MigrateRegion(ctx, start, 2, "admin"); err != nil {
		t.Fatalf("migrate after unlock: %v", err)
	}
	// Migrating the middle of a region is rejected.
	if err := nodes[0].MigrateRegion(ctx, start.MustAdd(16), 2, "admin"); !errors.Is(err, ErrNotRegionStart) {
		t.Fatalf("mid-region migrate = %v", err)
	}
}

// A PageReqBatch whose mode byte is not a lock mode is refused at the door:
// an error reply at once, no lock-table entry left behind to read as a
// held page, and the region still migrates.
func TestInvalidModeBatchDoesNotWedgeMigration(t *testing.T) {
	_, nodes := testCluster(t, 2)
	start := mkRegion(t, nodes[0], 2*4096, region.Attrs{}, "admin")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	resp, err := nodes[1].tr.Request(ctx, 1, &wire.PageReqBatch{
		Pages:     []gaddr.Addr{start, start.MustAdd(4096)},
		Modes:     []ktypes.LockMode{ktypes.LockRead, 0},
		Requester: 2,
	})
	if err != nil {
		t.Fatalf("bad-mode batch: %v (the handler must answer, not wait)", err)
	}
	grants := resp.(*wire.PageGrantBatch).Grants
	for i, g := range grants {
		if g.OK || g.Err == "" {
			t.Fatalf("grant %d of a batch with an invalid mode: %+v", i, g)
		}
	}
	busy := nodes[0].cms[region.CREW].(interface{ PageBusy(gaddr.Addr) bool })
	for _, page := range []gaddr.Addr{start, start.MustAdd(4096)} {
		if busy.PageBusy(page) || nodes[0].locks.Held(page) {
			t.Fatalf("page %v reads as locked after the refused batch", page)
		}
	}
	if err := nodes[0].MigrateRegion(ctx, start, 2, "admin"); err != nil {
		t.Fatalf("migrate after the refused batch: %v", err)
	}
}

func TestStatsRPC(t *testing.T) {
	_, nodes := testCluster(t, 2)
	ctx := context.Background()
	start := mkRegion(t, nodes[0], 4096, region.Attrs{}, "")
	lc, _ := nodes[1].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "")
	_ = nodes[1].Write(lc, start, []byte("x"))
	_ = nodes[1].Unlock(ctx, lc)

	resp := nodes[0].statsResp()
	if resp.Node != 1 || resp.HomedRegions != 1 {
		t.Fatalf("stats = %+v", resp)
	}
	r2 := nodes[1].statsResp()
	if r2.LocksGranted == 0 || r2.Lookups == 0 {
		t.Fatalf("node 2 stats = %+v", r2)
	}
	if len(resp.Members) < 2 {
		t.Fatalf("members = %v", resp.Members)
	}
}
