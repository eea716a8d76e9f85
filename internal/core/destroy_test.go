package core

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/pagedir"
	"khazana/internal/region"
	"khazana/internal/ring"
	"khazana/internal/transport"
	"khazana/internal/wire"
)

// TestUnreserveThreeRoles separates the three roles of a destroy: the
// destroying node, the region's home and a bucket owner are all different
// nodes. The destroyer must never resolve the region again, and the owner
// has forgotten the region by the time Unreserve returns: the destroy
// announce is delivered on the destroyer's goroutine.
func TestUnreserveThreeRoles(t *testing.T) {
	_, nodes := testCluster(t, 3)
	ctx := context.Background()
	for round := 0; round < 50; round++ {
		home := nodes[round%3]
		start := mkRegion(t, home, 4096, region.Attrs{}, "alice")
		desc, err := home.GetAttr(ctx, start)
		if err != nil {
			t.Fatal(err)
		}
		var owner, destroyer *Node
		for _, o := range home.Ring().RangeOwners(desc.Range) {
			if o != home.ID() {
				owner = nodes[o-1]
			}
		}
		for _, n := range nodes {
			if n != home && n != owner {
				destroyer = n
			}
		}
		if owner == nil || destroyer == nil {
			t.Fatalf("round %d: no owner besides the home among %v", round, home.Ring().RangeOwners(desc.Range))
		}
		// The owner's table learned the region before Reserve returned,
		// so the destroy has something to remove.
		if _, ok := owner.RingTable().Lookup(start); !ok {
			t.Fatalf("round %d: owner %v never learned the region", round, owner.ID())
		}
		if _, err := destroyer.GetAttr(ctx, start); err != nil {
			t.Fatal(err)
		}
		if err := destroyer.Unreserve(ctx, start, "alice"); err != nil {
			t.Fatal(err)
		}
		if _, err := destroyer.GetAttr(ctx, start); err == nil {
			t.Fatalf("round %d: destroyer %v still resolves the region", round, destroyer.ID())
		}
		if _, ok := owner.RingTable().Lookup(start); ok {
			t.Fatalf("round %d: owner %v still lists the region after Unreserve returned", round, owner.ID())
		}
		if _, err := owner.GetAttr(ctx, start); err == nil {
			t.Fatalf("round %d: owner %v still resolves the region", round, owner.ID())
		}
	}
}

// TestUnreserveStalledSharerCostsOneTimeout: destroying a region whose
// sharer has stopped answering waits for that sharer once — one
// InvalidateBatch under one deadline — not once per page it shared, and
// the region is gone afterwards all the same.
func TestUnreserveStalledSharerCostsOneTimeout(t *testing.T) {
	net, nodes := testCluster(t, 3)
	ctx := context.Background()
	const pageCount = 64
	rng := gaddr.Range{Start: mkRegion(t, nodes[0], pageCount*4096, region.Attrs{}, ""), Size: pageCount * 4096}
	lc, err := nodes[2].Lock(ctx, rng, ktypes.LockRead, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[2].Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}
	last := rng.Start.MustAdd((pageCount - 1) * 4096)
	for _, p := range []gaddr.Addr{rng.Start, last} {
		if e, _ := entryOf(nodes[0], p); !e.InCopyset(3) {
			t.Fatalf("node 3 is not a sharer of %v: %v", p, e.Copyset)
		}
	}

	// Node 3 goes silent: requests to it neither fail nor finish.
	net.SetLinkLatency(1, 3, time.Hour)
	began := time.Now()
	if err := nodes[0].Unreserve(ctx, rng.Start, ""); err != nil {
		t.Fatal(err)
	}
	took := time.Since(began)
	net.SetLinkLatency(1, 3, 0)
	if took > 2*teardownInvalidateTimeout {
		t.Fatalf("unreserve took %v with one stalled sharer of %d pages; one timeout is %v", took, pageCount, teardownInvalidateTimeout)
	}
	if _, err := nodes[0].GetAttr(ctx, rng.Start); err == nil {
		t.Fatal("home still resolves the destroyed region")
	}
	for _, p := range []gaddr.Addr{rng.Start, last} {
		if _, ok := entryOf(nodes[0], p); ok {
			t.Fatalf("page %v survived the destroy in the home's directory", p)
		}
		if _, ok := storedCopy(nodes[0], p); ok {
			t.Fatalf("page %v survived the destroy in the home's store", p)
		}
	}
}

// TestStaleDescriptorForgottenOnUse: a node still caching a destroyed
// region's descriptor pays one trip to the old home, whose definite
// no-such-region answer makes it drop its directory and ring-table
// entries.
func TestStaleDescriptorForgottenOnUse(t *testing.T) {
	_, nodes := testCluster(t, 3)
	ctx := context.Background()
	start := mkRegion(t, nodes[1], 4096, region.Attrs{}, "alice")
	stale, err := nodes[2].GetAttr(ctx, start)
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Unreserve(ctx, start, "alice"); err != nil {
		t.Fatal(err)
	}
	// Re-teach node 3 the stale copy, as a cache that missed the destroy.
	nodes[2].RegionDir().Insert(stale)
	if _, err := nodes[2].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "alice"); err == nil {
		t.Fatal("lock on a destroyed region succeeded")
	}
	if _, ok := nodes[2].RegionDir().Lookup(start); ok {
		t.Fatal("stale directory entry survived the home's no-such-region answer")
	}
	if !nodes[2].RingTable().Destroyed(start) {
		t.Fatal("requester did not tombstone the destroyed region")
	}
	nodes[2].RegionDir().Insert(stale)
	if err := nodes[2].SetAttr(ctx, start, stale.Attrs, "alice"); err == nil {
		t.Fatal("SetAttr on a destroyed region succeeded")
	}
	if _, ok := nodes[2].RegionDir().Lookup(start); ok {
		t.Fatal("stale directory entry survived a forwarded op's no-such-region answer")
	}
}

// TestDestroyFreesPerRegionState: create/destroy cycles must leave every
// table keyed by region or page at the home where it started — the replog
// instance, CREW's version chains, the page directory and the store.
func TestDestroyFreesPerRegionState(t *testing.T) {
	_, nodes := testCluster(t, 3)
	ctx := context.Background()
	home := nodes[0]
	type sizes struct{ repl, tables, chains, dir, mem, auth int }
	measure := func() sizes {
		chains := 0
		for _, t := range home.dir.Tables() {
			t.Each(func(p *pagedir.Page) {
				if p.Chain != nil {
					chains++
				}
			})
		}
		return sizes{
			repl:   home.repl.Regions(),
			tables: len(home.dir.Tables()),
			chains: chains,
			dir:    home.dir.Len(),
			mem:    home.store.Mem().Len(),
			auth:   home.authDescs.Len(),
		}
	}
	cycle := func(replicas uint8) {
		start := mkRegion(t, home, 2*4096, region.Attrs{MinReplicas: replicas}, "alice")
		if replicas > 1 {
			home.MaintainReplicas()
		}
		// A write at the home publishes version chains (and, replicated,
		// appends to the region's log).
		lc, err := home.Lock(ctx, gaddr.Range{Start: start, Size: 2 * 4096}, ktypes.LockWrite, "alice")
		if err != nil {
			t.Fatal(err)
		}
		if err := home.Write(lc, start, make([]byte, 2*4096)); err != nil {
			t.Fatal(err)
		}
		if err := home.Unlock(ctx, lc); err != nil {
			t.Fatal(err)
		}
		// A remote page-by-page reader joins the pages' copysets.
		for p := uint64(0); p < 2; p++ {
			rlc, err := nodes[2].Lock(ctx, gaddr.Range{Start: start.MustAdd(p * 4096), Size: 4096}, ktypes.LockRead, "alice")
			if err != nil {
				t.Fatal(err)
			}
			if err := nodes[2].Unlock(ctx, rlc); err != nil {
				t.Fatal(err)
			}
		}
		if err := home.Unreserve(ctx, start, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	// One warm-up pair so one-time allocations (map pages, chunk) are in
	// the baseline.
	cycle(1)
	cycle(3)
	before := measure()
	mid := sizes{}
	for i := 0; i < 20; i++ {
		start := mkRegion(t, home, 4096, region.Attrs{MinReplicas: 3}, "alice")
		home.MaintainReplicas()
		lc, err := home.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "alice")
		if err != nil {
			t.Fatal(err)
		}
		if err := home.Write(lc, start, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := home.Unlock(ctx, lc); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			mid = measure()
		}
		if err := home.Unreserve(ctx, start, "alice"); err != nil {
			t.Fatal(err)
		}
		cycle(1)
	}
	if mid.repl <= before.repl || mid.chains <= before.chains {
		t.Fatalf("cycle does not exercise the tables under test: live %+v vs baseline %+v", mid, before)
	}
	if after := measure(); after != before {
		t.Fatalf("per-region state left behind after 20 create/destroy cycles:\n before %+v\n after  %+v", before, after)
	}
}

// kindCounter counts outbound requests by wire kind.
type kindCounter struct {
	transport.Transport
	mu    sync.Mutex
	kinds map[wire.Kind]int
}

func (k *kindCounter) Request(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	k.mu.Lock()
	k.kinds[m.Kind()]++
	k.mu.Unlock()
	return k.Transport.Request(ctx, to, m)
}

// count reports how many requests of one kind were sent so far.
func (k *kindCounter) count(kind wire.Kind) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.kinds[kind]
}

// TestSinglePageLockIsBatchOfOne pins the wire cost of the only transfer
// path: a remote Lock+Unlock of one page is exactly one PageReqBatch and
// one ReleaseBatch, nothing else, and so is one of 4 or 16 pages — the
// cost does not grow with the page count.
func TestSinglePageLockIsBatchOfOne(t *testing.T) {
	for _, pages := range []uint64{1, 4, 16} {
		t.Run(fmt.Sprintf("pages=%d", pages), func(t *testing.T) {
			counter := &kindCounter{kinds: make(map[wire.Kind]int)}
			_, nodes := testCluster(t, 2, func(i int, cfg *Config) {
				if i == 1 {
					counter.Transport = cfg.Transport
					cfg.Transport = counter
				}
			})
			ctx := context.Background()
			start := mkRegion(t, nodes[0], (pages+1)*4096, region.Attrs{}, "alice")
			rng := gaddr.Range{Start: start.MustAdd(4096), Size: pages * 4096}
			cycle := func(mode ktypes.LockMode) {
				lc, err := nodes[1].Lock(ctx, rng, mode, "alice")
				if err != nil {
					t.Fatal(err)
				}
				if mode.Writes() {
					if err := nodes[1].Write(lc, rng.Start, []byte("one page")); err != nil {
						t.Fatal(err)
					}
				}
				if err := nodes[1].Unlock(ctx, lc); err != nil {
					t.Fatal(err)
				}
			}
			cycle(ktypes.LockRead) // warm the descriptor cache off the count
			for _, mode := range []ktypes.LockMode{ktypes.LockWrite, ktypes.LockRead} {
				counter.mu.Lock()
				counter.kinds = make(map[wire.Kind]int)
				counter.mu.Unlock()
				cycle(mode)
				counter.mu.Lock()
				got := counter.kinds
				counter.mu.Unlock()
				if len(got) != 2 || got[wire.KindPageReqBatch] != 1 || got[wire.KindReleaseBatch] != 1 {
					t.Fatalf("mode %v: remote lock cycle sent %v, want one PageReqBatch (%d) and one ReleaseBatch (%d)",
						mode, got, wire.KindPageReqBatch, wire.KindReleaseBatch)
				}
			}
		})
	}
}

// TestTeardownClearsSharerDirectory: a destroy's InvalidateBatch makes a
// sharer forget the region, including a sharer that owns none of its
// buckets and so never hears the ring's destroy cast, while a write
// grant's InvalidateBatch leaves the directory alone. Each region spans a
// whole bucket; after every destroy the sharer's directory holds exactly
// the regions that are still live.
func TestTeardownClearsSharerDirectory(t *testing.T) {
	_, nodes := testCluster(t, 3)
	ctx := context.Background()
	home, sharer := nodes[0], nodes[2]
	attrs := region.Attrs{PageSize: region.MaxPageSize}
	base := sharer.RegionDir().Len()
	var live, destroyed []gaddr.Addr
	for round := 0; len(destroyed) < 6; round++ {
		if round == 100 {
			t.Fatalf("only %d of 100 regions avoided the sharer's buckets", len(destroyed)+len(live))
		}
		start := mkRegion(t, home, ring.BucketSize, attrs, "")
		desc, err := home.GetAttr(ctx, start)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(home.Ring().RangeOwners(desc.Range), sharer.ID()) {
			if err := home.Unreserve(ctx, start, ""); err != nil {
				t.Fatal(err)
			}
			continue
		}
		// The sharer reads page 0, the home's write grant revokes that copy
		// without costing the sharer its directory entry, and the sharer
		// reads the page again.
		page := gaddr.Range{Start: start, Size: region.MaxPageSize}
		lockUnlock(t, sharer, page, ktypes.LockRead)
		lockUnlock(t, home, page, ktypes.LockWrite)
		if _, ok := sharer.RegionDir().Lookup(start); !ok {
			t.Fatalf("round %d: a write grant's invalidation dropped the sharer's directory entry", round)
		}
		lockUnlock(t, sharer, page, ktypes.LockRead)
		live = append(live, start)
		if len(live) < 3 {
			continue
		}
		if err := home.Unreserve(ctx, live[0], ""); err != nil {
			t.Fatal(err)
		}
		destroyed, live = append(destroyed, live[0]), live[1:]
		for _, s := range destroyed {
			if _, ok := sharer.RegionDir().Lookup(s); ok {
				t.Fatalf("round %d: sharer %v still caches destroyed region %v", round, sharer.ID(), s)
			}
		}
		for _, s := range live {
			if _, ok := sharer.RegionDir().Lookup(s); !ok {
				t.Fatalf("round %d: sharer %v lost live region %v", round, sharer.ID(), s)
			}
		}
		if got := sharer.RegionDir().Len(); got != base+len(live) {
			t.Fatalf("round %d: sharer caches %d descriptors, want %d", round, got, base+len(live))
		}
	}
}

func lockUnlock(t *testing.T, n *Node, rng gaddr.Range, mode ktypes.LockMode) {
	t.Helper()
	ctx := context.Background()
	lc, err := n.Lock(ctx, rng, mode, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}
}

// TestTeardownUnderRemoteReadHold: a region destroyed while a sharer holds
// a read lock on it leaves that holder reading the bytes it was granted,
// never zeroes, through its own page table. The teardown takes the
// table out of the sharer's directory, and neither the holder's reads nor
// its Unlock bring one back; the copies kept for it go at the Unlock.
func TestTeardownUnderRemoteReadHold(t *testing.T) {
	_, nodes := testCluster(t, 2)
	ctx := context.Background()
	home, sharer := nodes[0], nodes[1]
	const ps = 4096
	rng := gaddr.Range{Start: mkRegion(t, home, 2*ps, region.Attrs{}, ""), Size: 2 * ps}
	want := make([]byte, rng.Size)
	for i := range want {
		want[i] = byte(i%251 + 1)
	}
	wlc, err := home.Lock(ctx, rng, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Write(wlc, rng.Start, want); err != nil {
		t.Fatal(err)
	}
	if err := home.Unlock(ctx, wlc); err != nil {
		t.Fatal(err)
	}
	tables, resident := len(sharer.dir.Tables()), sharer.Store().Mem().Len()
	lc, err := sharer.Lock(ctx, rng, ktypes.LockRead, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sharer.dir.Tables()); got != tables+1 {
		t.Fatalf("sharer holds %d page tables under the lock, want %d", got, tables+1)
	}
	if err := home.Unreserve(ctx, rng.Start, ""); err != nil {
		t.Fatal(err)
	}
	if got := len(sharer.dir.Tables()); got != tables {
		t.Fatalf("sharer holds %d page tables after the teardown, want %d", got, tables)
	}
	got, err := sharer.Read(lc, rng.Start, rng.Size)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read under the hold after the teardown = %v, %v; want the granted bytes", got[:8], err)
	}
	view, err := sharer.ReadView(lc, rng.Start.MustAdd(ps), 8)
	if err != nil || !bytes.Equal(view, want[ps:ps+8]) {
		t.Fatalf("view under the hold after the teardown = %v, %v; want %v", view, err, want[ps:ps+8])
	}
	if got := len(sharer.dir.Tables()); got != tables {
		t.Fatalf("reads after the teardown left %d page tables, want %d", got, tables)
	}
	if err := sharer.Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}
	if got := len(sharer.dir.Tables()); got != tables {
		t.Fatalf("Unlock after the teardown left %d page tables, want %d", got, tables)
	}
	if got := sharer.Store().Mem().Len(); got != resident {
		t.Fatalf("sharer's RAM tier holds %d pages after the Unlock, want the %d from before the lock", got, resident)
	}
}

// TestUnreserveTombstonesSharerWithoutDirectoryEntry: a sharer sent the
// teardown InvalidateBatch gets no destroy announce, so the teardown
// alone must tombstone the region, also when the sharer can no longer
// resolve it — its directory and ring-table entries gone, the map home
// and the other bucket owner cut off — and only its page table knows the
// region.
func TestUnreserveTombstonesSharerWithoutDirectoryEntry(t *testing.T) {
	net, nodes := testCluster(t, 3)
	heartbeatAll(nodes)
	ctx := context.Background()
	home, sharer := nodes[1], nodes[2]
	// The sharer must be a bucket owner beside the map home, and the
	// home none: each 1 GB region takes a bucket of its own.
	var start gaddr.Addr
	for attempt := 0; ; attempt++ {
		if attempt == 32 {
			t.Fatal("no bucket among 32 is owned by nodes 1 and 3")
		}
		start = mkRegion(t, home, ring.BucketSize, region.Attrs{}, "alice")
		if owners := home.Ring().Owners(ring.BucketOf(start)); !slices.Contains(owners, home.ID()) {
			break
		}
	}
	rng := gaddr.Range{Start: start, Size: 2 * 4096}
	lc, err := sharer.Lock(ctx, rng, ktypes.LockRead, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := sharer.Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}
	sharer.rdir.Remove(start)
	sharer.ringTable.Remove(start)
	net.Partition(1, 3)
	defer net.Heal(1, 3)
	if _, err := sharer.GetAttr(ctx, start); err == nil {
		t.Fatal("the cut-off sharer still resolves the region")
	}
	if err := home.Unreserve(ctx, start, "alice"); err != nil {
		t.Fatal(err)
	}
	if !sharer.RingTable().Destroyed(start) {
		t.Fatal("the sharer did not tombstone the region its teardown named")
	}
	if sharer.dir.At(start) != nil {
		t.Fatal("the sharer kept the destroyed region's page table")
	}
}

// TestTeardownInvalidateSendsNothing: a sharer that owns none of the
// region's buckets, and whose directory no longer holds the region,
// answers the destroy's InvalidateBatch from its own tables: it sends no
// request of its own, and afterwards keeps no directory, ring-table or
// page-table entry for the region.
func TestTeardownInvalidateSendsNothing(t *testing.T) {
	counter := &kindCounter{kinds: make(map[wire.Kind]int)}
	_, nodes := testCluster(t, 3, func(i int, cfg *Config) {
		if i == 2 {
			counter.Transport = cfg.Transport
			cfg.Transport = counter
		}
	})
	ctx := context.Background()
	home, sharer := nodes[0], nodes[2]
	var start gaddr.Addr
	for attempt := 0; ; attempt++ {
		if attempt == 32 {
			t.Fatal("no region among 32 avoided the sharer's buckets")
		}
		start = mkRegion(t, home, ring.BucketSize, region.Attrs{}, "")
		desc, err := home.GetAttr(ctx, start)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(home.Ring().RangeOwners(desc.Range), sharer.ID()) {
			break
		}
	}
	lockUnlock(t, sharer, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead)
	sharer.rdir.Remove(start)
	if _, ok := sharer.RingTable().Lookup(start); ok {
		t.Fatal("the sharer's ring table lists a region whose buckets it does not own")
	}
	counter.mu.Lock()
	counter.kinds = make(map[wire.Kind]int)
	counter.mu.Unlock()
	if err := home.Unreserve(ctx, start, ""); err != nil {
		t.Fatal(err)
	}
	counter.mu.Lock()
	sent := maps.Clone(counter.kinds)
	counter.mu.Unlock()
	if len(sent) != 0 {
		t.Fatalf("the sharer sent %v while answering the teardown, want nothing", sent)
	}
	if _, ok := sharer.RegionDir().Lookup(start); ok {
		t.Fatal("the sharer's directory holds the destroyed region")
	}
	if sharer.dir.At(start) != nil {
		t.Fatal("the sharer kept the destroyed region's page table")
	}
	if !sharer.RingTable().Destroyed(start) {
		t.Fatal("the sharer did not tombstone the destroyed region")
	}
}
