package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/security"
	"khazana/internal/telemetry"
	"khazana/internal/wire"
)

// fillPages writes count whole pages from start under one write lock,
// page i filled with byte i+1.
func fillPages(t *testing.T, n *Node, start gaddr.Addr, count int) {
	t.Helper()
	ctx := context.Background()
	lc, err := n.Lock(ctx, gaddr.Range{Start: start, Size: uint64(count) * 4096}, ktypes.LockWrite, "admin")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		if err := n.Write(lc, start.MustAdd(uint64(i)*4096), bytes.Repeat([]byte{byte(i + 1)}, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}
}

// pushedPages is the 4 MiB the push tests write: 1 024 pages of 4 KiB.
const pushedPages = 1024

// wantReplicaPuts is the ReplicaPuts one target costs for pushedPages:
// one per replicaPutBytes of page bytes.
const wantReplicaPuts = (pushedPages*4096 + replicaPutBytes - 1) / replicaPutBytes

func TestMigrateRegionHandoff(t *testing.T) {
	counter := &kindCounter{kinds: make(map[wire.Kind]int)}
	_, nodes := testCluster(t, 3, func(i int, cfg *Config) {
		if i == 0 {
			counter.Transport = cfg.Transport
			cfg.Transport = counter
		}
	})
	ctx := context.Background()
	start := mkRegion(t, nodes[0], pushedPages*4096, region.Attrs{}, "admin")
	fillPages(t, nodes[0], start, pushedPages)

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
	// The pages travel in byte-capped chunks, not one message per page.
	if got := counter.count(wire.KindReplicaPut); got != wantReplicaPuts {
		t.Fatalf("migration sent %d ReplicaPuts for %d pages, want %d", got, pushedPages, wantReplicaPuts)
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

// TestMaintainReplicasBatches: a home growing a MinReplicas-3 region onto
// two new secondaries pushes its 1 024 written pages to each in
// byte-capped ReplicaPuts, and each secondary then holds every page's
// bytes at the home's version.
func TestMaintainReplicasBatches(t *testing.T) {
	counter := &kindCounter{kinds: make(map[wire.Kind]int)}
	_, nodes := testCluster(t, 3, func(i int, cfg *Config) {
		if i == 0 {
			counter.Transport = cfg.Transport
			cfg.Transport = counter
		}
	})
	start := mkRegion(t, nodes[0], pushedPages*4096, region.Attrs{MinReplicas: 3}, "admin")
	fillPages(t, nodes[0], start, pushedPages)

	nodes[0].MaintainReplicas()
	if got := counter.count(wire.KindReplicaPut); got != 2*wantReplicaPuts {
		t.Fatalf("maintenance sent %d ReplicaPuts, want %d", got, 2*wantReplicaPuts)
	}
	d := nodes[0].authDescByStart(start)
	if len(d.Home) != 3 {
		t.Fatalf("homes = %v, want 3", d.Home)
	}
	for _, h := range d.Home[1:] {
		sec := nodes[h-1]
		for i := 0; i < pushedPages; i++ {
			page := start.MustAdd(uint64(i) * 4096)
			want, _ := nodes[0].PageDir().Lookup(page)
			got, ok := sec.Store().GetCopy(page)
			if !ok {
				t.Fatalf("secondary %v lacks page %d", h, i)
			}
			if e, _ := sec.PageDir().Lookup(page); got[0] != byte(i+1) || e.Version != want.Version {
				t.Fatalf("secondary %v page %d: byte %#x v%d, want %#x v%d", h, i, got[0], e.Version, byte(i+1), want.Version)
			}
		}
	}
	// A second round finds every secondary in the copysets: nothing moves.
	nodes[0].MaintainReplicas()
	if got := counter.count(wire.KindReplicaPut); got != 2*wantReplicaPuts {
		t.Fatalf("a converged round sent %d more ReplicaPuts", got-2*wantReplicaPuts)
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

	counter := func(r *wire.StatsReply, name string) uint64 {
		for _, c := range r.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		return 0
	}
	homed := func(r *wire.StatsReply) int64 {
		for _, g := range r.Gauges {
			if g.Name == telemetry.MetricHomedRegions {
				return g.Value
			}
		}
		return 0
	}
	resp := nodes[0].statsReply(false)
	if resp.Node != 1 || homed(resp) != 1 {
		t.Fatalf("stats = %+v", resp)
	}
	r2 := nodes[1].statsReply(false)
	if counter(r2, telemetry.MetricLocksGranted) == 0 || counter(r2, telemetry.MetricLookups) == 0 {
		t.Fatalf("node 2 stats = %+v", r2)
	}
	if len(resp.Members) < 2 {
		t.Fatalf("members = %v", resp.Members)
	}
}
