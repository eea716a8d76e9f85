package core

import (
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/ring"
	"khazana/internal/transport"
	"khazana/internal/wire"
)

// heartbeatAll pushes one heartbeat from every non-manager node so the
// whole cluster converges on the manager's current membership view (and
// each node's ring follows it).
func heartbeatAll(nodes []*Node) {
	for _, n := range nodes {
		n.SendHeartbeat()
	}
}

// TestColdLookupSingleflight proves the per-bucket singleflight: N
// concurrent cold lookups for one address collapse into exactly one
// remote ring lookup, with every waiter satisfied from the directory the
// leader filled. Run under -race in CI.
func TestColdLookupSingleflight(t *testing.T) {
	_, nodes := testCluster(t, 3)
	ctx := context.Background()
	start := mkRegion(t, nodes[0], 4096, region.Attrs{}, "alice")

	n3 := nodes[2]
	// Make sure node 3 does not own the bucket itself, so the one flight
	// is genuinely remote; if it does own it, the local table hit still
	// counts as exactly one ring hit.
	const workers = 32
	var wg sync.WaitGroup
	errs := make([]error, workers)
	barrier := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-barrier
			_, errs[i] = n3.GetAttr(ctx, start)
		}(i)
	}
	close(barrier)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if got := n3.Statistics().RingHits.Load(); got != 1 {
		t.Fatalf("RingHits = %d, want exactly 1 (singleflight should collapse %d misses)", got, workers)
	}
	if walks := n3.mRingFallbacks.Load(); walks != 0 {
		t.Fatalf("tree walks = %d, want 0", walks)
	}
	if dir := n3.Statistics().DirHits.Load(); dir != workers-1 {
		t.Fatalf("DirHits = %d, want %d (every waiter re-checks the directory)", dir, workers-1)
	}
}

// TestRingMatchesTreeWalk is the ring-vs-ground-truth property test:
// descriptors resolved through the one-hop ring must agree with the
// address map tree walk for every region, before and after membership
// churn.
func TestRingMatchesTreeWalk(t *testing.T) {
	net, nodes := testCluster(t, 4)
	ctx := context.Background()

	// Regions of several sizes homed on several nodes; gigabyte-scale
	// ones span multiple ring buckets.
	sizes := []uint64{4096, 1 << 20, ring.BucketSize + 4096, 3 * 4096}
	var starts []gaddr.Addr
	for i := 0; i < 12; i++ {
		home := nodes[i%3]
		starts = append(starts, mkRegion(t, home, sizes[i%len(sizes)], region.Attrs{}, "alice"))
	}

	check := func(phase string) {
		t.Helper()
		reader := nodes[3]
		for _, s := range starts {
			got, err := reader.GetAttr(ctx, s)
			if err != nil {
				t.Fatalf("%s: GetAttr(%v): %v", phase, s, err)
			}
			entry, _, err := reader.AddressMap().Lookup(ctx, s)
			if err != nil {
				t.Fatalf("%s: tree walk %v: %v", phase, s, err)
			}
			if got.Range != entry.Range {
				t.Fatalf("%s: ring answer %v disagrees with tree walk %v", phase, got.Range, entry.Range)
			}
		}
	}

	// Each node's view is whatever its join returned, so nodes 2 and 3
	// announced their regions under rings of two and three members; one
	// heartbeat round gives every node the same ring and moves each
	// descriptor to its owners.
	heartbeatAll(nodes)
	walks := nodes[3].mRingFallbacks.Load()
	check("steady")
	if w := nodes[3].mRingFallbacks.Load() - walks; w != 0 {
		t.Fatalf("steady state missed the ring and walked the tree %d times", w)
	}

	// Membership churn: two more nodes join; every node re-syncs its
	// ring, homes re-announce moved partitions.
	grown := nodes
	for i := 5; i <= 6; i++ {
		id := ktypes.NodeID(i)
		tr, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(Config{
			ID:             id,
			Transport:      tr,
			StoreDir:       filepath.Join(t.TempDir(), fmt.Sprintf("n%d", id)),
			ClusterManager: 1,
			MapHome:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(ctx); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		grown = append(grown, node)
	}
	heartbeatAll(grown)
	// Clear the reader's directory so every lookup is cold again and must
	// prove the rebalanced ring still answers correctly.
	for _, s := range starts {
		nodes[3].rdir.Remove(s)
	}
	check("post-churn")
}

// TestRebalanceOnlyMovedReannounce proves membership change re-announces
// only the descriptors whose owner set actually moved: the consistent
// hash keeps the rest pinned, so rebalance cost is a fraction of the
// descriptor count, not all of it.
func TestRebalanceOnlyMovedReannounce(t *testing.T) {
	net, nodes := testCluster(t, 4)
	ctx := context.Background()

	// One-gigabyte regions land in distinct ring buckets, so their owner
	// sets move independently.
	const regions = 16
	for i := 0; i < regions; i++ {
		mkRegion(t, nodes[0], ring.BucketSize, region.Attrs{}, "alice")
	}
	if moves := nodes[0].mRingMoves.Load(); moves != 0 {
		t.Fatalf("stable membership counted %d rebalance moves", moves)
	}

	id := ktypes.NodeID(5)
	tr, err := net.Attach(id)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(Config{
		ID:             id,
		Transport:      tr,
		StoreDir:       filepath.Join(t.TempDir(), "n5"),
		ClusterManager: 1,
		MapHome:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })

	// The home hears about the new member on its next heartbeat and
	// rebalances.
	nodes[0].SendHeartbeat()
	moves := nodes[0].mRingMoves.Load()
	if moves == 0 {
		t.Fatal("growing the ring moved no partitions at all")
	}
	if moves >= regions {
		t.Fatalf("rebalance re-announced %d of %d descriptors; consistent hashing should move only a fraction", moves, regions)
	}
	t.Logf("rebalance moved %d of %d descriptors", moves, regions)
}

// ringCluster starts n nodes, the last one's requests counted by kind,
// and creates one 4 KB region on each of nodes 2..n-1. Regions on distinct
// nodes come from distinct address-space chunks, so they fall in distinct
// ring buckets. Every node then converges on the full membership view and
// its announces land.
func ringCluster(t *testing.T, n int) (*transport.Network, []*Node, *kindCounter, []gaddr.Addr) {
	t.Helper()
	counter := &kindCounter{kinds: make(map[wire.Kind]int)}
	net, nodes := testCluster(t, n, func(i int, cfg *Config) {
		if i == n-1 {
			counter.Transport = cfg.Transport
			cfg.Transport = counter
		}
	})
	heartbeatAll(nodes)
	starts := make([]gaddr.Addr, 0, n-2)
	for _, home := range nodes[1 : n-1] {
		starts = append(starts, mkRegion(t, home, 4096, region.Attrs{}, "alice"))
	}
	heartbeatAll(nodes)
	return net, nodes, counter, starts
}

// TestColdLookupIsOneHop: at 16 and 64 nodes, a cold lookup by a node
// that does not own the region's bucket is exactly one RingLookup RPC —
// no tree walk, no fallback — however many members and regions exist.
func TestColdLookupIsOneHop(t *testing.T) {
	for _, n := range []int{16, 64} {
		t.Run(fmt.Sprintf("nodes=%d", n), func(t *testing.T) {
			_, nodes, counter, starts := ringCluster(t, n)
			ctx := context.Background()
			reader := nodes[n-1]
			walks := reader.mRingFallbacks.Load()
			remote := 0
			for _, s := range starts {
				if slices.Contains(reader.Ring().Owners(ring.BucketOf(s)), reader.cfg.ID) {
					continue
				}
				remote++
				reader.rdir.Remove(s)
				counter.mu.Lock()
				counter.kinds = make(map[wire.Kind]int)
				counter.mu.Unlock()
				d, err := reader.GetAttr(ctx, s)
				if err != nil {
					t.Fatal(err)
				}
				if d.Range.Start != s {
					t.Fatalf("lookup of %v resolved to %v", s, d.Range)
				}
				counter.mu.Lock()
				got := counter.kinds
				counter.mu.Unlock()
				if len(got) != 1 || got[wire.KindRingLookup] != 1 {
					t.Fatalf("cold lookup of %v sent %v, want one RingLookup (%d)", s, got, wire.KindRingLookup)
				}
			}
			if remote == 0 {
				t.Fatal("the reader owns every region's bucket; no remote lookup ran")
			}
			if w := reader.mRingFallbacks.Load() - walks; w != 0 {
				t.Fatalf("%d ring fallbacks to the tree walk, want 0", w)
			}
		})
	}
}

// TestOwnersCrashedLookupRepairs crashes every ring owner of one region's
// bucket, none of them the region's home, the manager or the reader. A
// cold lookup must still resolve the region, through the counted repair
// behind the ring: one fallback, one address map tree walk.
func TestOwnersCrashedLookupRepairs(t *testing.T) {
	const n = 12
	net, nodes, _, starts := ringCluster(t, n)
	reader := nodes[n-1]
	for i, s := range starts {
		home := nodes[i+1]
		owners := reader.Ring().Owners(ring.BucketOf(s))
		if len(owners) == 0 || slices.Contains(owners, 1) || slices.Contains(owners, home.cfg.ID) || slices.Contains(owners, reader.cfg.ID) {
			continue
		}
		for _, o := range owners {
			net.Crash(o)
		}
		reader.rdir.Remove(s)
		walks := reader.mRingFallbacks.Load()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		d, err := reader.GetAttr(ctx, s)
		cancel()
		if err != nil {
			t.Fatalf("lookup with every bucket owner (%v) crashed: %v", owners, err)
		}
		want := home.authDesc(s)
		if d.Range != want.Range || !slices.Equal(d.Home, want.Home) {
			t.Fatalf("repaired lookup resolved %v homed at %v, want %v homed at %v", d.Range, d.Home, want.Range, want.Home)
		}
		if w := reader.mRingFallbacks.Load() - walks; w != 1 {
			t.Fatalf("the lookup counted %d ring fallbacks to the tree walk, want 1", w)
		}
		return
	}
	t.Fatal("no region's bucket owners exclude its home, the manager and the reader")
}

// TestColdLockOnOwnerSendsNoRingLookup: a node that owns a region's bucket
// answers its own cold lookup from its ring table, even when another
// owner comes first in the bucket's owner list. Its cold Lock is one
// PageReqBatch and nothing else.
func TestColdLockOnOwnerSendsNoRingLookup(t *testing.T) {
	counter := &kindCounter{kinds: make(map[wire.Kind]int)}
	_, nodes := testCluster(t, 3, func(i int, cfg *Config) {
		if i == 2 {
			counter.Transport = cfg.Transport
			cfg.Transport = counter
		}
	})
	heartbeatAll(nodes)
	ctx := context.Background()
	reader := nodes[2]
	// Each 1 GB region takes a chunk, and so a bucket, of its own: step
	// through buckets until the reader is the second owner of one.
	var start gaddr.Addr
	for attempt := 0; ; attempt++ {
		if attempt == 32 {
			t.Fatal("no bucket among 32 lists the reader as its second owner")
		}
		start = mkRegion(t, nodes[attempt%2], ring.BucketSize, region.Attrs{}, "alice")
		if owners := reader.Ring().Owners(ring.BucketOf(start)); len(owners) == 2 && owners[1] == reader.cfg.ID {
			break
		}
	}
	if _, ok := reader.rdir.Lookup(start); ok {
		t.Fatal("the reader's directory already holds the region")
	}
	counter.mu.Lock()
	clear(counter.kinds)
	counter.mu.Unlock()
	lc, err := reader.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "alice")
	if err != nil {
		t.Fatal(err)
	}
	counter.mu.Lock()
	got := maps.Clone(counter.kinds)
	counter.mu.Unlock()
	if err := reader.Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[wire.KindPageReqBatch] != 1 {
		t.Fatalf("a cold Lock on a bucket owner sent %v by kind, want one PageReqBatch (%d)", got, wire.KindPageReqBatch)
	}
}

// remoteOwnersOf returns the ring owners of a region's range other than
// self.
func remoteOwnersOf(r *ring.Ring, rng gaddr.Range, self ktypes.NodeID) []ktypes.NodeID {
	return slices.DeleteFunc(r.RangeOwners(rng), func(o ktypes.NodeID) bool { return o == self })
}

// TestReserveWithStalledOwnerCostsOneTimeout: with one of a region's two
// remote bucket owners silent (its link at an hour), Reserve and Allocate
// each wait out one announce bound, no more, and the live owner has the
// allocated descriptor when Allocate returns.
func TestReserveWithStalledOwnerCostsOneTimeout(t *testing.T) {
	t.Parallel()
	net, nodes := testCluster(t, 4)
	heartbeatAll(nodes)
	ctx := context.Background()
	// A small region lands right after the probe, in the probe's bucket:
	// find a home whose next region has two remote owners, one of them
	// not the map home (which Reserve needs).
	var home *Node
	var stalled, live ktypes.NodeID
	for attempt := 0; home == nil; attempt++ {
		if attempt == 32 {
			t.Fatal("no bucket among 32 has two owners besides its home")
		}
		h := nodes[1+attempt%3]
		probe := mkRegion(t, h, 4096, region.Attrs{}, "alice")
		owners := remoteOwnersOf(h.Ring(), gaddr.Range{Start: probe, Size: 4096}, h.cfg.ID)
		if len(owners) != 2 {
			mkRegion(t, h, ring.BucketSize, region.Attrs{}, "alice") // the next bucket
			continue
		}
		home, stalled, live = h, owners[0], owners[1]
		if stalled == 1 {
			stalled, live = live, stalled
		}
	}
	net.SetLinkLatency(home.cfg.ID, stalled, time.Hour)
	defer net.SetLinkLatency(home.cfg.ID, stalled, 0)
	limit := ringCastTimeout + time.Second
	began := time.Now()
	start, err := home.Reserve(ctx, 4096, region.Attrs{}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took > limit {
		t.Fatalf("Reserve took %v with one stalled owner; one bound is %v", took, ringCastTimeout)
	}
	if owners := remoteOwnersOf(home.Ring(), gaddr.Range{Start: start, Size: 4096}, home.cfg.ID); !slices.Contains(owners, stalled) || !slices.Contains(owners, live) {
		t.Fatalf("region %v has remote owners %v, want %v and %v", start, owners, stalled, live)
	}
	began = time.Now()
	if err := home.Allocate(ctx, start, "alice"); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took > limit {
		t.Fatalf("Allocate took %v with one stalled owner; one bound is %v", took, ringCastTimeout)
	}
	if d, ok := nodes[live-1].RingTable().Lookup(start); !ok || !d.Allocated {
		t.Fatalf("live owner %v holds %+v for the region, want the allocated descriptor", live, d)
	}
	d, err := nodes[live-1].GetAttr(ctx, start)
	if err != nil || !d.Allocated {
		t.Fatalf("live owner %v resolves the region to %+v, %v", live, d, err)
	}
}

// TestRebalanceWithStalledOwnerCostsOneTimeout: a home with many homed
// descriptors rebalances after a new member joins whose link from the
// home is silent. The rebalance waits out one announce bound for that
// member, however many descriptors move to it, and every live owner of a
// moved descriptor has it again afterwards.
func TestRebalanceWithStalledOwnerCostsOneTimeout(t *testing.T) {
	t.Parallel()
	net, nodes := testCluster(t, 4)
	heartbeatAll(nodes)
	ctx := context.Background()
	home := nodes[1]
	const regions = 16
	descs := make([]*region.Descriptor, regions)
	for i := range descs {
		start := mkRegion(t, home, ring.BucketSize, region.Attrs{}, "alice")
		descs[i] = home.authDesc(start)
	}
	grown := append(slices.Clone(nodes), func() *Node {
		tr, err := net.Attach(5)
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(Config{ID: 5, Transport: tr, StoreDir: filepath.Join(t.TempDir(), "n5"), ClusterManager: 1, MapHome: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(ctx); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}())
	// The home's ring does not list node 5 yet. Find the descriptors that
	// move to it, and drop them from every other node's table, so the
	// rebalance alone must put them back.
	old, next := home.Ring(), ring.Build([]ktypes.NodeID{1, 2, 3, 4, 5}, ring.Options{})
	var moved []*region.Descriptor
	for _, d := range descs {
		if slices.Contains(next.RangeOwners(d.Range), 5) && !slices.Contains(old.RangeOwners(d.Range), 5) {
			moved = append(moved, d)
			for _, n := range grown {
				if n != home {
					n.RingTable().Remove(d.Range.Start)
				}
			}
		}
	}
	if len(moved) < 2 {
		t.Fatalf("%d of %d descriptors move to the new member; the test needs at least 2", len(moved), regions)
	}

	net.SetLinkLatency(home.cfg.ID, 5, time.Hour)
	defer net.SetLinkLatency(home.cfg.ID, 5, 0)
	began := time.Now()
	home.SendHeartbeat() // the view lists node 5: the home rebalances
	if took := time.Since(began); took > ringCastTimeout+time.Second {
		t.Fatalf("rebalancing %d descriptors onto a stalled member took %v; one bound is %v", len(moved), took, ringCastTimeout)
	}
	if !home.Ring().SameMembers(next.Members()) {
		t.Fatalf("the home's ring lists %v after the heartbeat", home.Ring().Members())
	}
	checked := 0
	for _, d := range moved {
		for _, o := range remoteOwnersOf(next, d.Range, home.cfg.ID) {
			if o == 5 {
				continue
			}
			if _, ok := grown[o-1].RingTable().Lookup(d.Range.Start); !ok {
				t.Fatalf("live owner %v did not get moved descriptor %v", o, d.Range)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no moved descriptor has a live owner besides its home")
	}
	t.Logf("%d descriptors moved to the stalled member; %d live owner copies checked", len(moved), checked)
}
