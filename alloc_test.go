package khazana_test

import (
	"context"
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"khazana"
	"khazana/internal/frame"
	"khazana/internal/ring"
	"khazana/internal/telemetry"
	"khazana/internal/transport"
	"khazana/internal/wire"
)

// TestCachedReadAllocGate is the allocation regression gate for the
// zero-copy frame pipeline: a cached full-page read through the view path
// must not allocate page data — the returned slice aliases the pooled
// frame pinned in the lock context. The budget of 1 alloc/op absorbs
// bookkeeping amortization (the view pin list growing); a regression that
// reintroduces a per-read page copy jumps to 2+ and fails.
func TestCachedReadAllocGate(t *testing.T) {
	c, err := khazana.NewCluster(1, khazana.WithStoreDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const ps = 4096
	n := c.Node(1)
	start, err := n.Reserve(ctx, ps, khazana.Attrs{}, "bench")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Allocate(ctx, start, "bench"); err != nil {
		t.Fatal(err)
	}
	lk, err := n.Lock(ctx, khazana.Range{Start: start, Size: ps}, khazana.LockWrite, "bench")
	if err != nil {
		t.Fatal(err)
	}
	if err := lk.Write(start, make([]byte, ps)); err != nil {
		t.Fatal(err)
	}
	if err := lk.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	rlk, err := n.Lock(ctx, khazana.Range{Start: start, Size: ps}, khazana.LockRead, "bench")
	if err != nil {
		t.Fatal(err)
	}
	defer rlk.Unlock(ctx)
	avg := testing.AllocsPerRun(500, func() {
		view, err := rlk.ReadView(start, ps)
		if err != nil {
			t.Fatal(err)
		}
		if len(view) != ps {
			t.Fatalf("view length %d", len(view))
		}
	})
	if avg > 1 {
		t.Fatalf("cached zero-copy read allocates %.2f objects/op, budget is 1", avg)
	}
}

// TestSnapshotViewAllocGate is the allocation gate for the snapshot read
// path: once the first View has pinned the page, every subsequent cached
// view is served straight off the pinned frame — zero allocations, no
// lookup, no RPC. Unlike the lock-context gate above there is no pin-list
// amortization, so the budget is exactly 0.
func TestSnapshotViewAllocGate(t *testing.T) {
	c, err := khazana.NewCluster(1, khazana.WithStoreDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const ps = 4096
	n := c.Node(1)
	start, err := n.Reserve(ctx, ps, khazana.Attrs{}, "bench")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Allocate(ctx, start, "bench"); err != nil {
		t.Fatal(err)
	}
	lk, err := n.Lock(ctx, khazana.Range{Start: start, Size: ps}, khazana.LockWrite, "bench")
	if err != nil {
		t.Fatal(err)
	}
	if err := lk.Write(start, make([]byte, ps)); err != nil {
		t.Fatal(err)
	}
	if err := lk.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	snap := n.Snapshot("bench")
	defer snap.Close()
	if _, err := snap.View(ctx, start, ps); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(500, func() {
		view, err := snap.View(ctx, start, ps)
		if err != nil {
			t.Fatal(err)
		}
		if len(view) != ps {
			t.Fatalf("view length %d", len(view))
		}
	})
	if avg > 0 {
		t.Fatalf("cached snapshot view allocates %.2f objects/op, budget is 0", avg)
	}
}

// TestRemoteReadBatchAllocGate is the allocation gate for the remote data
// path's copy budget: a page crossing the in-process network is copied
// once into a pooled transport buffer and once out into a pooled frame,
// and neither copy grows the heap. A warmed 16-page remote read batch —
// Lock, ReadView of every page, Unlock, after a publish invalidated the
// reader's copies so every page really moves — must allocate less than
// half the 64 KB it moves. The rest of the budget is bookkeeping (lock
// entries, directory clones, the lock context); a reintroduced per-page
// heap copy or a marshal buffer that grows from scratch blows through it.
func TestRemoteReadBatchAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards entries under the race detector; the byte budget assumes pooling")
	}
	c, err := khazana.NewCluster(2, khazana.WithStoreDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const (
		ps      = 4096
		pages   = 16
		batches = 200
		budget  = 32 << 10
	)
	home, reader := c.Node(1), c.Node(2)
	start, err := home.Reserve(ctx, pages*ps, khazana.Attrs{}, "bench")
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Allocate(ctx, start, "bench"); err != nil {
		t.Fatal(err)
	}
	rng := khazana.Range{Start: start, Size: pages * ps}
	page := make([]byte, ps)
	publish := func(gen byte) {
		lk, err := home.Lock(ctx, rng, khazana.LockWrite, "bench")
		if err != nil {
			t.Fatal(err)
		}
		for i := range page {
			page[i] = gen
		}
		for p := uint64(0); p < pages; p++ {
			if err := lk.Write(start.MustAdd(p*ps), page); err != nil {
				t.Fatal(err)
			}
		}
		if err := lk.Unlock(ctx); err != nil {
			t.Fatal(err)
		}
	}
	readBatch := func(gen byte) {
		lk, err := reader.Lock(ctx, rng, khazana.LockRead, "bench")
		if err != nil {
			t.Fatal(err)
		}
		for p := uint64(0); p < pages; p++ {
			view, err := lk.ReadView(start.MustAdd(p*ps), ps)
			if err != nil {
				t.Fatal(err)
			}
			if view[0] != gen || view[ps-1] != gen {
				t.Fatalf("page %d holds generation %d, want %d", p, view[0], gen)
			}
		}
		if err := lk.Unlock(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for gen := byte(0); gen < 20; gen++ { // fill the buffer and frame pools
		publish(gen)
		readBatch(gen)
	}
	var before, after runtime.MemStats
	var total uint64
	for i := 0; i < batches; i++ {
		gen := byte(100 + i%100)
		publish(gen)
		runtime.ReadMemStats(&before)
		readBatch(gen)
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	avg := total / batches
	t.Logf("a 16-page remote read batch allocates %d B on average", avg)
	if avg > budget {
		t.Fatalf("a 16-page remote read batch allocates %d B to move %d B, budget is %d B", avg, pages*ps, budget)
	}
}

// TestRemoteReadWindowAllocGate is the object budget of one remote_scan
// window: on 2 nodes, the home writes 16 pages, which invalidates the
// reader's copies, and the reader takes a 16-page Lock → ReadView → Unlock
// through the home's read lock — one grant batch and one release batch.
// A window measures 37 objects: 49 while a served RPC made two tracing
// slots (the envelope's and the handler span's) and the requester built
// its granted-page list on every grant, 89 while every write grant and the
// next read grant each built a new copyset per page, every RPC built its
// trace envelope twice and every release reply listed an error per page,
// 109 while the store also allocated an entry per re-fetched page. The
// budget is 38, so any one of them coming back breaks it.
func TestRemoteReadWindowAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards entries under the race detector; the budget assumes pooled frames and buffers")
	}
	c, err := khazana.NewCluster(2, khazana.WithStoreDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const (
		ps     = 4096
		pages  = 16
		cycles = 200
	)
	home, reader := c.Node(1), c.Node(2)
	start, err := home.Reserve(ctx, pages*ps, khazana.Attrs{}, "bench")
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Allocate(ctx, start, "bench"); err != nil {
		t.Fatal(err)
	}
	rng := khazana.Range{Start: start, Size: pages * ps}
	page := make([]byte, ps)
	window := func(gen byte) {
		lk, err := home.Lock(ctx, rng, khazana.LockWrite, "bench")
		if err != nil {
			t.Fatal(err)
		}
		page[0] = gen
		for p := uint64(0); p < pages; p++ {
			if err := lk.Write(start.MustAdd(p*ps), page); err != nil {
				t.Fatal(err)
			}
		}
		if err := lk.Unlock(ctx); err != nil {
			t.Fatal(err)
		}
		rlk, err := reader.Lock(ctx, rng, khazana.LockRead, "bench")
		if err != nil {
			t.Fatal(err)
		}
		for p := uint64(0); p < pages; p++ {
			view, err := rlk.ReadView(start.MustAdd(p*ps), ps)
			if err != nil {
				t.Fatal(err)
			}
			if view[0] != gen {
				t.Fatalf("page %d holds generation %d, want %d", p, view[0], gen)
			}
		}
		if err := rlk.Unlock(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ { // fill the pools and the maps
		window(byte(i))
	}
	objects := math.Inf(1)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			window(byte(i))
		}
		runtime.ReadMemStats(&after)
		objects = math.Min(objects, float64(after.Mallocs-before.Mallocs)/cycles)
	}
	t.Logf("remote 16-page read window: %.2f objects", objects)
	if objects > 38 {
		t.Fatalf("a remote 16-page read window allocates %.2f objects, budget is 38", objects)
	}
}

// TestMarshalGrantBatchAllocGate: wire.Marshal encodes into pooled scratch
// space and returns one exact-size copy, so marshaling a 16-page grant is
// one allocation, not a buffer regrown from 64 bytes.
func TestMarshalGrantBatchAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards entries under the race detector; the scratch buffer is pooled")
	}
	const pages = 16
	m := &wire.PageGrantBatch{Grants: make([]wire.PageGrantItem, pages)}
	for i := range m.Grants {
		f := frame.AllocZero(4096)
		m.Grants[i] = wire.PageGrantItem{OK: true, Version: 1, Owner: 1}
		m.Grants[i].SetFrame(f)
		f.Release()
	}
	defer m.ReleaseFrames()
	var encoded []byte
	avg := testing.AllocsPerRun(200, func() { encoded = wire.Marshal(m) })
	if avg != 1 {
		t.Fatalf("marshaling a %d-page grant allocates %.2f objects, want exactly 1", pages, avg)
	}
	if cap(encoded) != len(encoded) {
		t.Fatalf("marshaled grant has %d spare bytes of capacity", cap(encoded)-len(encoded))
	}
}

// lockCycleCost runs Lock → op → Unlock cycles of one resident page
// on the region's home node and returns the average objects and bytes
// one cycle allocates (telemetry on, as in the default cluster).
func lockCycleCost(t *testing.T, mode khazana.LockMode, op func(lk *khazana.Lock, start khazana.Addr)) (objects, bytes float64) {
	t.Helper()
	c, err := khazana.NewCluster(2, khazana.WithStoreDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const ps = 4096
	n := c.Node(1)
	start, err := n.Reserve(ctx, ps, khazana.Attrs{}, "bench")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Allocate(ctx, start, "bench"); err != nil {
		t.Fatal(err)
	}
	rng := khazana.Range{Start: start, Size: ps}
	cycle := func() {
		lk, err := n.Lock(ctx, rng, mode, "bench")
		if err != nil {
			t.Fatal(err)
		}
		op(lk, start)
		if err := lk.Unlock(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Make the page resident, then warm the maps and pools.
	lk, err := n.Lock(ctx, rng, khazana.LockWrite, "bench")
	if err != nil {
		t.Fatal(err)
	}
	if err := lk.Write(start, make([]byte, ps)); err != nil {
		t.Fatal(err)
	}
	if err := lk.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	// The cluster's background loops allocate too, and only ever add: the
	// cheapest of three rounds is the cycle's own cost.
	const cycles = 1000
	objects, bytes = math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		objects = math.Min(objects, float64(after.Mallocs-before.Mallocs)/cycles)
		bytes = math.Min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/cycles)
	}
	return objects, bytes
}

// TestLocalLockCycleAllocGate is the object budget of the node-local lock
// path: on the home node, with telemetry on, Lock(read, one resident page)
// + ReadView + Unlock creates the lock context and nothing else — no span
// context, no lock-table entry or gate, no descriptor clone, no page list,
// pin list, dirty map or public wrapper. The budget of 3 objects and 320 B
// leaves room for a map or pool growing once in a thousand cycles; any of
// the fourteen objects the cycle used to allocate coming back fails it.
// In write mode with one full-page Write the cycle measures 4 objects and
// 560 B: the context, the dirty set the first Write now makes (two: map
// and its first group), and the release's replication list; a write
// grant that revokes no copy stores no new copyset, and the new page
// frame comes out of the frame pool. Its budget is 8 objects and 1 KB — a
// page frame allocated per write (4 KB) fails it.
func TestLocalLockCycleAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards entries under the race detector; the budgets assume pooled frames")
	}
	page := make([]byte, 4096)
	objects, bytes := lockCycleCost(t, khazana.LockRead, func(lk *khazana.Lock, start khazana.Addr) {
		if view, err := lk.ReadView(start, 4096); err != nil || len(view) != 4096 {
			t.Fatalf("view of %d bytes: %v", len(view), err)
		}
	})
	t.Logf("read cycle: %.2f objects, %.0f B", objects, bytes)
	if objects > 3 || bytes > 320 {
		t.Fatalf("a resident read lock cycle allocates %.2f objects / %.0f B, budget is 3 objects / 320 B", objects, bytes)
	}
	objects, bytes = lockCycleCost(t, khazana.LockWrite, func(lk *khazana.Lock, start khazana.Addr) {
		if err := lk.Write(start, page); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("write cycle: %.2f objects, %.0f B", objects, bytes)
	if objects > 8 || bytes > 1024 {
		t.Fatalf("a resident write lock cycle allocates %.2f objects / %.0f B, budget is 8 objects / 1024 B", objects, bytes)
	}
}

// replicatedWriter builds a 4-node cluster with an 8-page MinReplicas-3
// region and returns the cluster and one write cycle — Lock, eight
// full-page Writes, Unlock — from the node outside the region's home list,
// or from the region's primary home when byHome is set.
func replicatedWriter(t *testing.T, byHome bool) (*khazana.Cluster, func(gen byte)) {
	t.Helper()
	c, err := khazana.NewCluster(4, khazana.WithStoreDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()
	const (
		ps    = 4096
		pages = 8
	)
	start, err := c.Node(1).Reserve(ctx, pages*ps, khazana.Attrs{MinReplicas: 3}, "bench")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Node(1).Allocate(ctx, start, "bench"); err != nil {
		t.Fatal(err)
	}
	c.Node(1).Core().MaintainReplicas()
	d, err := c.Node(1).GetAttr(ctx, start)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Home) != 3 {
		t.Fatalf("home list %v, want 3 homes", d.Home)
	}
	writer := c.Node(int(d.Home[0]))
	for i := 1; i <= 4 && !byHome; i++ {
		if !d.HasHome(khazana.NodeID(i)) {
			writer = c.Node(i)
		}
	}
	rng := khazana.Range{Start: start, Size: pages * ps}
	page := make([]byte, ps)
	return c, func(gen byte) {
		lk, err := writer.Lock(ctx, rng, khazana.LockWrite, "bench")
		if err != nil {
			t.Fatal(err)
		}
		page[0] = gen
		for p := uint64(0); p < pages; p++ {
			if err := lk.Write(start.MustAdd(p*ps), page); err != nil {
				t.Fatal(err)
			}
		}
		if err := lk.Unlock(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicatedWriteAllocGate is the object budget of the replicated
// release: on a 4-node cluster, one 8-page write cycle (Lock, eight
// full-page Writes, Unlock) from a node outside a MinReplicas-3 region's
// home list — one PageReqBatch, one ReleaseBatch and one replicated-log
// append per secondary carrying the entries and the pages' bytes —
// averages at most 56 objects and 10.5 KB. It measures about 49 objects
// and 10.0 KB: 74 and 10.4 KB while each decoded log entry had its own
// copyset, the release lists grew by append and a served RPC made two
// tracing slots; 104 and 12.8 KB while the log append and the bytes went
// to each secondary in two messages. A write grant that invalidated the
// secondary homes' failover copies (two more RPCs and every page
// re-inserted), a log that copied its retained tail on every commit,
// per-lookup copyset clones, a heap-allocated decoder per message or a
// second message per secondary each break it.
func TestReplicatedWriteAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards entries under the race detector; the budgets assume pooled frames and buffers")
	}
	_, cycle := replicatedWriter(t, false)
	const cycles = 200
	for i := 0; i < 100; i++ { // fill the log's tail, the pools and the maps
		cycle(byte(i))
	}
	objects, bytes := math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			cycle(byte(i))
		}
		runtime.ReadMemStats(&after)
		objects = math.Min(objects, float64(after.Mallocs-before.Mallocs)/cycles)
		bytes = math.Min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/cycles)
	}
	t.Logf("replicated 8-page write cycle: %.2f objects, %.0f B", objects, bytes)
	if objects > 56 || bytes > 10.5*1024 {
		t.Fatalf("a replicated 8-page write cycle allocates %.2f objects / %.0f B, budget is 56 objects / 10.5 KB", objects, bytes)
	}
}

// TestReplicatedReleaseRoundTrips: the same write cycle makes exactly four
// RPCs — the PageReqBatch and the ReleaseBatch to the home, and one
// replicated-log append per secondary that carries the released pages
// with the entries. Written by the primary home, it makes only the two
// appends. The home's update-batch histogram observes once per append
// sent, so it names the two log appends among the cycle's RPCs.
// Background traffic can only add to a cycle's count, so the least of
// several cycles is the cycle's own.
func TestReplicatedReleaseRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		name   string
		byHome bool
		want   uint64
	}{
		{"non-home writer", false, 4},
		{"home writer", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, cycle := replicatedWriter(t, tc.byHome)
			cycle(0) // the writer learns the descriptor
			appends := func() uint64 {
				for _, h := range c.Node(1).Core().MetricsSnapshot().Histograms {
					if h.Name == telemetry.MetricUpdateBatchPages {
						return h.Count
					}
				}
				return 0
			}
			least := uint64(math.MaxUint64)
			for i := 1; i <= 10; i++ {
				before, _ := c.Network.Stats()
				appended := appends()
				cycle(byte(i))
				for _, n := range c.Nodes() {
					n.Core().ReplSettle() // the release returned at a majority
				}
				after, _ := c.Network.Stats()
				least = min(least, after-before)
				if got := appends() - appended; got != 2 {
					t.Fatalf("cycle %d sent %d log appends carrying pages, want one per secondary (2)", i, got)
				}
			}
			if least != tc.want {
				t.Fatalf("a replicated 8-page write cycle makes %d RPCs, want %d", least, tc.want)
			}
		})
	}
}

// regionLifecycle is the region_churn benchmark's cycle on a 3-node
// cluster: node 1 (creator) reserves, allocates and writes page 0 of a
// 16-page region, node 3 (opener) cold-opens the region created the cycle
// before, and node 1 unreserves the region created 64 cycles ago. It
// creates the first 64 regions, then returns the cycle, which reports the
// regions it created, opened and destroyed.
func regionLifecycle(t *testing.T, creator, opener *khazana.Node) (cycle func() (created, opened, destroyed khazana.Addr)) {
	ctx := context.Background()
	page := make([]byte, lifecyclePageSize)
	// live is a ring of the regions not yet unreserved; live[next] is the
	// oldest, the one before it the newest.
	var live [64]khazana.Addr
	next := 0
	create := func() khazana.Addr {
		start, err := creator.Reserve(ctx, lifecyclePages*lifecyclePageSize, khazana.Attrs{}, "bench")
		if err != nil {
			t.Fatal(err)
		}
		if err := creator.Allocate(ctx, start, "bench"); err != nil {
			t.Fatal(err)
		}
		lk, err := creator.Lock(ctx, khazana.Range{Start: start, Size: lifecyclePageSize}, khazana.LockWrite, "bench")
		if err != nil {
			t.Fatal(err)
		}
		if err := lk.Write(start, page); err != nil {
			t.Fatal(err)
		}
		if err := lk.Unlock(ctx); err != nil {
			t.Fatal(err)
		}
		return start
	}
	for i := range live {
		live[i] = create()
	}
	return func() (created, opened, destroyed khazana.Addr) {
		opened = live[(next+len(live)-1)%len(live)]
		destroyed = live[next]
		created = create()
		live[next] = created
		next = (next + 1) % len(live)
		lk, err := opener.Lock(ctx, khazana.Range{Start: opened, Size: lifecyclePageSize}, khazana.LockRead, "bench")
		if err != nil {
			t.Fatal(err)
		}
		if view, err := lk.ReadView(opened, lifecyclePageSize); err != nil || len(view) != lifecyclePageSize {
			t.Fatalf("cold open read %d bytes: %v", len(view), err)
		}
		if err := lk.Unlock(ctx); err != nil {
			t.Fatal(err)
		}
		if err := creator.Unreserve(ctx, destroyed, "bench"); err != nil {
			t.Fatal(err)
		}
		return created, opened, destroyed
	}
}

// The region lifecycle's regions are 16 pages of 4 KB.
const (
	lifecyclePageSize = 4096
	lifecyclePages    = 16
)

// TestRegionLifecycleAllocGate is the object and byte budget of the
// region lifecycle (regionLifecycle). After 4 100 warm-up cycles — the
// opener's 1 024-entry region directory is full, so every cold open
// evicts one — a cycle averages at most 145 objects and 8 KB. It measures
// about 125 objects and 7.0 KB; with the ring announces sent from a
// goroutine per cast it measured 145 objects and 7.4 KB, and while every
// map edit copied its tree node to the heap 24 KB. A directory that
// allocates more than the descriptor clone per new region, a tree-node
// decode that allocates, or an encoder allocated per map write each
// break it.
func TestRegionLifecycleAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards entries under the race detector; the budget assumes pooled frames and buffers")
	}
	c, err := khazana.NewCluster(3, khazana.WithStoreDir(t.TempDir()), khazana.WithMemPages(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const (
		warm   = 4100
		cycles = 500
	)
	cycle := regionLifecycle(t, c.Node(1), c.Node(3))
	for i := 0; i < warm; i++ {
		cycle()
	}
	objects, bytes := math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		objects = math.Min(objects, float64(after.Mallocs-before.Mallocs)/cycles)
		bytes = math.Min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/cycles)
	}
	t.Logf("region lifecycle cycle: %.2f objects, %.0f B", objects, bytes)
	if objects > 145 {
		t.Fatalf("a region lifecycle cycle allocates %.2f objects, budget is 145", objects)
	}
	if bytes > 8<<10 {
		t.Fatalf("a region lifecycle cycle allocates %.0f B, budget is 8 KB", bytes)
	}
}

// kindCount counts the requests a node sends, by kind.
type kindCount struct {
	transport.Transport
	mu    sync.Mutex
	kinds map[wire.Kind]int
}

func (k *kindCount) Request(ctx context.Context, to khazana.NodeID, m wire.Msg) (wire.Msg, error) {
	k.mu.Lock()
	k.kinds[m.Kind()]++
	k.mu.Unlock()
	return k.Transport.Request(ctx, to, m)
}

// TestRegionLifecycleRPCs is the exact message count of the region
// lifecycle (regionLifecycle) over inproc, with nothing waited for
// between cycles. A ring announce is delivered before the call that made
// it returns, so every cold open finds the allocated descriptor where the
// ring says it is. Per cycle: one RingAnnounce to each remote bucket
// owner per state change (reserve, allocate and the destroy, which skips
// the opener: its teardown InvalidateBatch told it); a RingLookup only
// when the opener does not own the bucket; one PageReqBatch, one
// ReleaseBatch and one InvalidateBatch; no RegionLookup, no tree walk and
// nothing else.
func TestRegionLifecycleRPCs(t *testing.T) {
	ctx := context.Background()
	net := transport.NewNetwork()
	counts := make([]*kindCount, 3)
	nodes := make([]*khazana.Node, 3)
	for i := range nodes {
		id := khazana.NodeID(i + 1)
		tr, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = &kindCount{Transport: tr, kinds: make(map[wire.Kind]int)}
		n, err := khazana.StartNode(ctx, khazana.NodeConfig{
			ID:             id,
			Transport:      counts[i],
			StoreDir:       filepath.Join(t.TempDir(), fmt.Sprintf("n%d", id)),
			MemPages:       4096,
			ClusterManager: 1,
			MapHome:        1,
			Genesis:        id == 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes[i] = n
	}
	// One heartbeat round gives every node the manager's view, and so the
	// same ring.
	for _, n := range nodes[1:] {
		n.Core().SendHeartbeat()
	}
	creator, opener := nodes[0], nodes[2]
	cycle := regionLifecycle(t, creator, opener)
	// After 64 cycles every region a cycle destroys is one the opener
	// opened, so it is a sharer the teardown invalidates.
	for i := 0; i < 64; i++ {
		cycle()
	}
	for _, k := range counts {
		k.mu.Lock()
		clear(k.kinds)
		k.mu.Unlock()
	}
	walks := func() (sum uint64) {
		for _, n := range nodes {
			sum += n.Core().Telemetry().Counter(telemetry.MetricRingFallbackWalks).Load()
		}
		return sum
	}
	walked := walks()
	r := creator.Core().Ring()
	remoteOwners := func(start khazana.Addr, skip khazana.NodeID) (n int) {
		for _, o := range r.RangeOwners(khazana.Range{Start: start, Size: lifecyclePages * lifecyclePageSize}) {
			if o != creator.ID() && o != skip {
				n++
			}
		}
		return n
	}
	const cycles = 1000
	want := map[wire.Kind]int{
		wire.KindPageReqBatch:    cycles,
		wire.KindReleaseBatch:    cycles,
		wire.KindInvalidateBatch: cycles,
	}
	ownsBucket := 0
	for i := 0; i < cycles; i++ {
		created, opened, destroyed := cycle()
		want[wire.KindRingAnnounce] += 2*remoteOwners(created, 0) + remoteOwners(destroyed, opener.ID())
		if r.IsOwner(opener.ID(), ring.BucketOf(opened)) {
			ownsBucket++
		} else {
			want[wire.KindRingLookup]++
		}
	}
	got := make(map[wire.Kind]int)
	for _, k := range counts {
		k.mu.Lock()
		for kind, n := range k.kinds {
			got[kind] += n
		}
		k.mu.Unlock()
	}
	t.Logf("%d cycles (opener owns the bucket in %d): sent %v", cycles, ownsBucket, got)
	if !maps.Equal(got, want) {
		t.Fatalf("%d region lifecycle cycles sent %v by kind, want %v", cycles, got, want)
	}
	if w := walks() - walked; w != 0 {
		t.Fatalf("%d cold opens walked the address map tree, want 0", w)
	}
}
