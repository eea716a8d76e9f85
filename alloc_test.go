package khazana_test

import (
	"context"
	"math"
	"runtime"
	"testing"

	"khazana"
	"khazana/internal/frame"
	"khazana/internal/telemetry"
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

// TestRegionLifecycleAllocGate is the object and byte budget of the
// region lifecycle, the region_churn benchmark's cycle: on a 3-node
// cluster, node 1 reserves, allocates and writes page 0 of a 16-page
// region, node 3 cold-opens the region created the cycle before, and node
// 1 unreserves the region created 64 cycles ago. After 4 100 warm-up
// cycles — the opener's 1 024-entry region directory is full, so every
// cold open evicts one — a cycle averages at most 180 objects and 10 KB.
// It measures about 147 objects and 7.5 KB; while every map edit copied
// its tree node to the heap it measured 24 KB. A directory that allocates
// more than the descriptor clone per new region, a tree-node decode that
// allocates, or an encoder allocated per map write each break it.
func TestRegionLifecycleAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards entries under the race detector; the budget assumes pooled frames and buffers")
	}
	c, err := khazana.NewCluster(3, khazana.WithStoreDir(t.TempDir()), khazana.WithMemPages(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const (
		ps     = 4096
		pages  = 16
		warm   = 4100
		cycles = 500
	)
	creator, opener := c.Node(1), c.Node(3)
	page := make([]byte, ps)
	// live is a ring of the regions not yet unreserved; live[next] is the
	// oldest, the one before it the newest.
	var live [64]khazana.Addr
	next := 0
	create := func() khazana.Addr {
		start, err := creator.Reserve(ctx, pages*ps, khazana.Attrs{}, "bench")
		if err != nil {
			t.Fatal(err)
		}
		if err := creator.Allocate(ctx, start, "bench"); err != nil {
			t.Fatal(err)
		}
		lk, err := creator.Lock(ctx, khazana.Range{Start: start, Size: ps}, khazana.LockWrite, "bench")
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
	cycle := func() {
		prev := live[(next+len(live)-1)%len(live)]
		oldest := live[next]
		live[next] = create()
		next = (next + 1) % len(live)
		// The previous cycle's ring announce has landed by now on an idle
		// host; waiting for it keeps a loaded one on the same lookup path.
		creator.Core().RingSettle()
		lk, err := opener.Lock(ctx, khazana.Range{Start: prev, Size: ps}, khazana.LockRead, "bench")
		if err != nil {
			t.Fatal(err)
		}
		if view, err := lk.ReadView(prev, ps); err != nil || len(view) != ps {
			t.Fatalf("cold open read %d bytes: %v", len(view), err)
		}
		if err := lk.Unlock(ctx); err != nil {
			t.Fatal(err)
		}
		if err := creator.Unreserve(ctx, oldest, "bench"); err != nil {
			t.Fatal(err)
		}
	}
	for i := range live {
		live[i] = create()
	}
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
	if objects > 180 {
		t.Fatalf("a region lifecycle cycle allocates %.2f objects, budget is 180", objects)
	}
	if bytes > 10<<10 {
		t.Fatalf("a region lifecycle cycle allocates %.0f B, budget is 10 KB", bytes)
	}
}
