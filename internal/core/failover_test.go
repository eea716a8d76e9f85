package core

// Tests for the consensus-backed failover path: homes append release
// deltas to the replicated region-metadata log, standbys replay them,
// and promotion means winning one election and resuming from the log.
// Run with -race: the singleflight test exists to catch concurrent
// promoteLocal callers racing the descriptor reorder.

import (
	"context"
	"sync"
	"testing"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/transport"
)

// replicatedRegion builds a MinReplicas-3 region homed on node 2 of a
// 4-node cluster, with its home list grown to three by replica maintenance
// (node 2 first, then whichever members maintenance picks, e.g. [2 1 3]),
// and one committed write so the log carries a release delta.
func replicatedRegion(t *testing.T) (*transport.Network, []*Node, gaddr.Addr) {
	t.Helper()
	net, nodes := testCluster(t, 4)
	ctx := context.Background()
	attrs := region.Attrs{MinReplicas: 3}
	start := mkRegion(t, nodes[1], 4096, attrs, "alice")
	// Refresh node 2's membership view (heartbeat loops are off in
	// tests) so replica maintenance can grow the home list.
	nodes[1].SendHeartbeat()
	nodes[1].MaintainReplicas()
	d := nodes[1].authDescByStart(start)
	if d == nil || len(d.Home) != 3 {
		t.Fatalf("home list = %v, want 3 homes", d)
	}
	lc, err := nodes[1].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Write(lc, start, []byte("logged before crash")); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}
	return net, nodes, start
}

func TestReleaseAppendsToReplicatedLog(t *testing.T) {
	_, nodes, start := replicatedRegion(t)
	// The home led the append.
	leader, term := nodes[1].Repl().Leader(start)
	if leader != 2 || term == 0 {
		t.Fatalf("leader = %v term %d, want home 2 with a term", leader, term)
	}
	commit, last := nodes[1].Repl().Progress(start)
	if commit == 0 || last == 0 {
		t.Fatalf("home progress commit=%d last=%d, want appended+committed", commit, last)
	}
	// Every listed standby holds the delta (its commit may trail by one
	// append; the entry itself must be there).
	d := nodes[1].authDescByStart(start)
	for _, h := range d.Home[1:] {
		standby := nodes[h-1]
		_, slast := standby.Repl().Progress(start)
		if slast != last {
			t.Fatalf("standby %d last=%d, want %d", h, slast, last)
		}
		if leader, _ := standby.Repl().Leader(start); leader != 2 {
			t.Fatalf("standby %d follows leader %v, want 2", h, leader)
		}
	}
}

func TestFailoverResumesFromLog(t *testing.T) {
	net, nodes, start := replicatedRegion(t)
	page := start
	homeEntry, _ := nodes[1].PageDir().Lookup(page)
	if homeEntry.Version == 0 {
		t.Fatal("home has no committed version to lose")
	}

	net.Crash(2)
	ctx := context.Background()
	d := nodes[2].promoteLocal(ctx, start)
	if d == nil {
		t.Fatal("promotion failed")
	}
	if h, err := d.PrimaryHome(); err != nil || h != 3 {
		t.Fatalf("promoted primary = %v (%v), want 3", h, err)
	}
	// The election was real: node 3 leads the region's log now.
	leader, _ := nodes[2].Repl().Leader(start)
	if leader != 3 {
		t.Fatalf("log leader = %v, want 3", leader)
	}
	// Resume-from-log restored the release metadata the dead home had
	// acknowledged: same committed version, no lost release.
	got, _ := nodes[2].PageDir().Lookup(page)
	if got.Version < homeEntry.Version {
		t.Fatalf("replayed version %d, want >= %d", got.Version, homeEntry.Version)
	}
}

func TestPromoteLocalSingleflight(t *testing.T) {
	net, nodes, start := replicatedRegion(t)
	before := nodes[2].authDescByStart(start)
	if before == nil {
		t.Fatal("node 3 has no secondary descriptor")
	}
	net.Crash(2)

	ctx := context.Background()
	const callers = 8
	results := make([]*region.Descriptor, callers)
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			results[i] = nodes[2].promoteLocal(ctx, start)
		}(i)
	}
	close(gate)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("promotions wedged")
	}

	won := 0
	for i, d := range results {
		if d == nil {
			continue
		}
		won++
		if h, err := d.PrimaryHome(); err != nil || h != 3 {
			t.Fatalf("caller %d promoted primary = %v (%v), want 3", i, h, err)
		}
	}
	if won == 0 {
		t.Fatal("no caller saw the promotion")
	}
	// Exactly one flight reordered the descriptor: a second concurrent
	// promotion would have bumped the epoch again.
	after := nodes[2].authDescByStart(start)
	if after.Epoch != before.Epoch+1 {
		t.Fatalf("epoch %d -> %d, want exactly one bump", before.Epoch, after.Epoch)
	}
	if nodes[2].mHomePromos.Load() != 1 {
		t.Fatalf("home_promotions = %d, want 1", nodes[2].mHomePromos.Load())
	}
}

// TestWriteHoldKeepsReplicaForFailover: a write grant to a node outside the
// home list does not revoke the secondary homes' copies — they are the
// region's failover copies — so when the primary crashes during the
// writer's hold, the promoted secondary serves the last acked release, not
// a zero page.
func TestWriteHoldKeepsReplicaForFailover(t *testing.T) {
	net, nodes, start := replicatedRegion(t)
	ctx := context.Background()
	d := nodes[1].authDescByStart(start)
	var writer *Node
	for _, n := range nodes {
		if !d.HasHome(n.cfg.ID) {
			writer = n
		}
	}
	rng := gaddr.Range{Start: start, Size: 4096}
	lc, err := writer.Lock(ctx, rng, ktypes.LockWrite, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Write(lc, start, []byte("never released")); err != nil {
		t.Fatal(err)
	}
	for _, h := range d.Home[1:] {
		if f, ok := nodes[h-1].Store().Get(start); ok {
			f.Release()
		} else {
			t.Errorf("secondary home %v dropped its replica while node %v holds the write lock", h, writer.cfg.ID)
		}
	}

	net.Crash(d.Home[0])
	promoted := nodes[d.Home[1]-1]
	if nd := promoted.promoteLocal(ctx, start); nd == nil {
		t.Fatal("promotion failed")
	}
	const want = "logged before crash"
	rlc, err := promoted.Lock(ctx, rng, ktypes.LockRead, "alice")
	if err != nil {
		t.Fatal(err)
	}
	got, err := promoted.Read(rlc, start, uint64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("promoted home %v serves %q as the committed page, want %q", promoted.cfg.ID, got, want)
	}
	if err := promoted.Unlock(ctx, rlc); err != nil {
		t.Fatal(err)
	}
}

// TestMissedWriteThroughRepairedByMaintenance: a secondary home that misses
// a release's write-through is brought to the committed version by the
// next replica-maintenance round, so a later promotion does not resume
// from its stale copy.
func TestMissedWriteThroughRepairedByMaintenance(t *testing.T) {
	net, nodes, start := replicatedRegion(t)
	ctx := context.Background()
	primary := nodes[1]
	d := primary.authDescByStart(start)
	missed := nodes[d.Home[2]-1]
	var writer *Node
	for _, n := range nodes {
		if !d.HasHome(n.cfg.ID) {
			writer = n
		}
	}
	const want = "written while partitioned"
	net.Partition(primary.cfg.ID, missed.cfg.ID)
	lc, err := writer.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Write(lc, start, []byte(want)); err != nil {
		t.Fatal(err)
	}
	if err := writer.Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}
	net.Heal(primary.cfg.ID, missed.cfg.ID)

	repairs := primary.mReplicaRepairs.Load()
	primary.MaintainReplicas()
	if primary.mReplicaRepairs.Load() == repairs {
		t.Fatalf("maintenance repaired nothing on secondary %v", missed.cfg.ID)
	}
	f, ok := missed.Store().Get(start)
	if !ok {
		t.Fatalf("secondary %v holds no copy after maintenance", missed.cfg.ID)
	}
	got := string(f.Bytes()[:len(want)])
	f.Release()
	if got != want {
		t.Fatalf("secondary %v holds %q after maintenance, want %q", missed.cfg.ID, got, want)
	}
	pe, _ := primary.dir.Lookup(start)
	if me, _ := missed.dir.Lookup(start); me.Version != pe.Version {
		t.Fatalf("secondary %v at version %d after maintenance, primary at %d", missed.cfg.ID, me.Version, pe.Version)
	}
}

// TestTwoHomeTakeoverWritesThrough: a two-home region has no ballot
// majority without its dead primary, so the survivor takes over without an
// election; it still leads the region's log, so once the old home is back
// the survivor's next release reaches it in that release's own append,
// without a replica-maintenance round.
func TestTwoHomeTakeoverWritesThrough(t *testing.T) {
	net, nodes := testCluster(t, 3)
	ctx := context.Background()
	start := mkRegion(t, nodes[1], 4096, region.Attrs{MinReplicas: 2}, "alice")
	nodes[1].SendHeartbeat()
	nodes[1].MaintainReplicas()
	d := nodes[1].authDescByStart(start)
	if d == nil || len(d.Home) != 2 {
		t.Fatalf("home list = %v, want 2 homes", d)
	}
	rng := gaddr.Range{Start: start, Size: 4096}
	write := func(n *Node, data string) {
		t.Helper()
		lc, err := n.Lock(ctx, rng, ktypes.LockWrite, "alice")
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Write(lc, start, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if err := n.Unlock(ctx, lc); err != nil {
			t.Fatal(err)
		}
	}
	write(nodes[1], "before the crash")

	old, survivor := nodes[d.Home[0]-1], nodes[d.Home[1]-1]
	net.Crash(old.cfg.ID)
	if nd := survivor.promoteLocal(ctx, start); nd == nil {
		t.Fatal("promotion failed")
	}
	if leader, _ := survivor.Repl().Leader(start); leader != survivor.cfg.ID {
		t.Fatalf("log leader after the takeover = %v, want the survivor %v", leader, survivor.cfg.ID)
	}
	net.Restart(old.cfg.ID)
	const want = "after the takeover"
	write(survivor, want)

	f, ok := old.Store().Get(start)
	if !ok {
		t.Fatalf("old home %v holds no copy", old.cfg.ID)
	}
	got := string(f.Bytes()[:len(want)])
	f.Release()
	se, _ := survivor.dir.Lookup(start)
	if oe, _ := old.dir.Lookup(start); got != want || oe.Version != se.Version {
		t.Fatalf("old home %v holds %q at v%d, want %q at the survivor's v%d", old.cfg.ID, got, oe.Version, want, se.Version)
	}
}

// TestPromotedHomeServesCommittedBytes: a release from a node outside the
// home list carries its bytes to the secondaries in the append that
// commits it, so once the release is acked the primary can die and the
// promoted secondary grants a read of exactly that release, bytes and
// version, with no replica-maintenance round in between.
func TestPromotedHomeServesCommittedBytes(t *testing.T) {
	net, nodes, start := replicatedRegion(t)
	ctx := context.Background()
	primary := nodes[1]
	d := primary.authDescByStart(start)
	var writer *Node
	for _, n := range nodes {
		if !d.HasHome(n.cfg.ID) {
			writer = n
		}
	}
	rng := gaddr.Range{Start: start, Size: 4096}
	const want = "acked before the crash"
	lc, err := writer.Lock(ctx, rng, ktypes.LockWrite, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Write(lc, start, []byte(want)); err != nil {
		t.Fatal(err)
	}
	if err := writer.Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}
	committed, _ := primary.dir.Lookup(start)

	net.Crash(primary.cfg.ID)
	promoted := nodes[d.Home[1]-1]
	if nd := promoted.promoteLocal(ctx, start); nd == nil {
		t.Fatal("promotion failed")
	}
	rlc, err := promoted.Lock(ctx, rng, ktypes.LockRead, "alice")
	if err != nil {
		t.Fatal(err)
	}
	got, err := promoted.Read(rlc, start, uint64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	pe, _ := promoted.dir.Lookup(start)
	if err := promoted.Unlock(ctx, rlc); err != nil {
		t.Fatal(err)
	}
	if string(got) != want || pe.Version != committed.Version {
		t.Fatalf("promoted home %v grants %q at v%d, want the acked release %q at v%d", promoted.cfg.ID, got, pe.Version, want, committed.Version)
	}
}
