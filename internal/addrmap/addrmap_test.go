package addrmap

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sync"
	"testing"
	"testing/quick"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
)

// memIO is an in-memory PageIO for unit tests.
type memIO struct {
	mu    sync.Mutex
	pages map[gaddr.Addr][]byte
	reads int
	// writes counts write-backs per page.
	writes map[gaddr.Addr]int
}

func newMemIO() *memIO {
	return &memIO{pages: make(map[gaddr.Addr][]byte), writes: make(map[gaddr.Addr]int)}
}

func (io *memIO) ReadPage(_ context.Context, page gaddr.Addr) ([]byte, func(), error) {
	io.mu.Lock()
	defer io.mu.Unlock()
	io.reads++
	data, ok := io.pages[page]
	if !ok {
		return make([]byte, PageSize), func() {}, nil
	}
	return append([]byte(nil), data...), func() {}, nil
}

func (io *memIO) MutatePage(_ context.Context, page gaddr.Addr, fn func([]byte) (bool, error)) error {
	io.mu.Lock()
	defer io.mu.Unlock()
	data := make([]byte, PageSize)
	copy(data, io.pages[page])
	if changed, err := fn(data); err != nil || !changed {
		return err
	}
	io.pages[page] = data
	io.writes[page]++
	return nil
}

func newTestMap(t *testing.T) (*Map, *memIO) {
	t.Helper()
	io := newMemIO()
	m := New(io)
	if err := m.Init(context.Background(), []ktypes.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	return m, io
}

func TestInitIdempotent(t *testing.T) {
	m, _ := newTestMap(t)
	ctx := context.Background()
	if err := m.Init(ctx, []ktypes.NodeID{2}); err != nil {
		t.Fatal(err)
	}
	// Address 0 must resolve to the map's own region homed on node 1
	// (the first Init wins).
	entry, steps, err := m.Lookup(ctx, gaddr.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 1 {
		t.Fatalf("root lookup took %d steps", steps)
	}
	if entry.Range.Start != gaddr.Zero || entry.Range.Size != RegionSize {
		t.Fatalf("map self-entry = %v", entry.Range)
	}
	if len(entry.Homes) != 1 || entry.Homes[0] != 1 {
		t.Fatalf("map homes = %v", entry.Homes)
	}
}

func TestReserveRangeMonotonicCursor(t *testing.T) {
	m, _ := newTestMap(t)
	ctx := context.Background()
	r1, err := m.ReserveRange(ctx, 1<<20, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.ReserveRange(ctx, 1<<20, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Overlaps(r2) {
		t.Fatalf("chunks overlap: %v %v", r1, r2)
	}
	if !gaddr.FromUint64(RegionSize).Less(r1.Start) && r1.Start != gaddr.FromUint64(RegionSize) {
		t.Fatalf("first chunk %v inside map region", r1)
	}
	if r2.Start.Less(r1.Start) {
		t.Fatal("cursor went backwards")
	}
}

func TestInsertLookupRemove(t *testing.T) {
	m, _ := newTestMap(t)
	ctx := context.Background()
	chunk, _ := m.ReserveRange(ctx, 1<<20, PageSize)
	r := gaddr.Range{Start: chunk.Start, Size: 0x4000}
	if err := m.Insert(ctx, Entry{Range: r, Homes: []ktypes.NodeID{3, 4}}); err != nil {
		t.Fatal(err)
	}
	mid := r.Start.MustAdd(0x2000)
	entry, _, err := m.Lookup(ctx, mid)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Range != r || len(entry.Homes) != 2 || entry.Homes[0] != 3 {
		t.Fatalf("lookup = %+v", entry)
	}
	// Address past the region misses.
	past := r.Start.MustAdd(r.Size)
	if _, _, err := m.Lookup(ctx, past); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup past region: %v", err)
	}
	if err := m.Remove(ctx, r.Start); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Lookup(ctx, mid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup after remove: %v", err)
	}
	if err := m.Remove(ctx, r.Start); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestInsertOverlapRejected(t *testing.T) {
	m, _ := newTestMap(t)
	ctx := context.Background()
	chunk, _ := m.ReserveRange(ctx, 1<<20, PageSize)
	r := gaddr.Range{Start: chunk.Start, Size: 0x4000}
	if err := m.Insert(ctx, Entry{Range: r, Homes: []ktypes.NodeID{1}}); err != nil {
		t.Fatal(err)
	}
	overlapping := gaddr.Range{Start: chunk.Start.MustAdd(0x2000), Size: 0x4000}
	if err := m.Insert(ctx, Entry{Range: overlapping, Homes: []ktypes.NodeID{1}}); !errors.Is(err, ErrOverlap) {
		t.Fatalf("overlap insert: %v", err)
	}
	// Overlap with the map's own region is also rejected.
	inMap := gaddr.Range{Start: gaddr.FromUint64(0x100000), Size: 0x1000}
	if err := m.Insert(ctx, Entry{Range: inMap, Homes: []ktypes.NodeID{1}}); !errors.Is(err, ErrOverlap) {
		t.Fatalf("map-region insert: %v", err)
	}
}

func TestSetHomes(t *testing.T) {
	m, _ := newTestMap(t)
	ctx := context.Background()
	chunk, _ := m.ReserveRange(ctx, 1<<20, PageSize)
	r := gaddr.Range{Start: chunk.Start, Size: 0x1000}
	if err := m.Insert(ctx, Entry{Range: r, Homes: []ktypes.NodeID{1}}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetHomes(ctx, r.Start, []ktypes.NodeID{5, 6}); err != nil {
		t.Fatal(err)
	}
	entry, _, err := m.Lookup(ctx, r.Start)
	if err != nil {
		t.Fatal(err)
	}
	if len(entry.Homes) != 2 || entry.Homes[0] != 5 || entry.Homes[1] != 6 {
		t.Fatalf("homes = %v", entry.Homes)
	}
	if err := m.SetHomes(ctx, gaddr.FromUint64(0x500000), []ktypes.NodeID{9}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("SetHomes on unknown region: %v", err)
	}
}

func TestSplitGrowsTree(t *testing.T) {
	m, _ := newTestMap(t)
	ctx := context.Background()
	const regions = maxEntries * 3
	chunk, err := m.ReserveRange(ctx, uint64(regions)*0x10000, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	var inserted []gaddr.Range
	for i := 0; i < regions; i++ {
		r := gaddr.Range{Start: chunk.Start.MustAdd(uint64(i) * 0x10000), Size: 0x8000}
		if err := m.Insert(ctx, Entry{Range: r, Homes: []ktypes.NodeID{ktypes.NodeID(i%4 + 1)}}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		inserted = append(inserted, r)
	}
	depth, err := m.Depth(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if depth < 2 {
		t.Fatalf("tree depth = %d after %d inserts, expected splits", depth, regions)
	}
	// Every inserted region must still resolve, and lookups inside
	// subtrees must take more steps than the root.
	deepSteps := 0
	for i, r := range inserted {
		entry, steps, err := m.Lookup(ctx, r.Start.MustAdd(1))
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if entry.Range != r {
			t.Fatalf("lookup %d = %v, want %v", i, entry.Range, r)
		}
		if steps > deepSteps {
			deepSteps = steps
		}
	}
	if deepSteps < 2 {
		t.Fatalf("max lookup steps = %d, expected tree descent", deepSteps)
	}
}

func TestWalkVisitsAllInOrder(t *testing.T) {
	m, _ := newTestMap(t)
	ctx := context.Background()
	const regions = 200
	chunk, _ := m.ReserveRange(ctx, regions*0x2000, PageSize)
	for i := 0; i < regions; i++ {
		r := gaddr.Range{Start: chunk.Start.MustAdd(uint64(i) * 0x2000), Size: 0x1000}
		if err := m.Insert(ctx, Entry{Range: r, Homes: []ktypes.NodeID{1}}); err != nil {
			t.Fatal(err)
		}
	}
	var prev gaddr.Addr
	count := 0
	err := m.Walk(ctx, func(e Entry) bool {
		if count > 0 && e.Range.Start.Less(prev) {
			t.Fatalf("walk out of order: %v after %v", e.Range.Start, prev)
		}
		prev = e.Range.Start
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != regions+1 { // +1 for the map's own region
		t.Fatalf("walk visited %d, want %d", count, regions+1)
	}
	// Early termination.
	count = 0
	_ = m.Walk(ctx, func(Entry) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early-stop walk visited %d", count)
	}
}

func TestRemoveInsideSubtree(t *testing.T) {
	m, _ := newTestMap(t)
	ctx := context.Background()
	const regions = maxEntries + 10
	chunk, _ := m.ReserveRange(ctx, regions*0x2000, PageSize)
	var rs []gaddr.Range
	for i := 0; i < regions; i++ {
		r := gaddr.Range{Start: chunk.Start.MustAdd(uint64(i) * 0x2000), Size: 0x1000}
		rs = append(rs, r)
		if err := m.Insert(ctx, Entry{Range: r, Homes: []ktypes.NodeID{1}}); err != nil {
			t.Fatal(err)
		}
	}
	// The earliest regions migrated into a subtree on split; remove one.
	if err := m.Remove(ctx, rs[0].Start); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Lookup(ctx, rs[0].Start); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup removed subtree entry: %v", err)
	}
	// Neighbours survive.
	if _, _, err := m.Lookup(ctx, rs[1].Start); err != nil {
		t.Fatalf("neighbour lost: %v", err)
	}
}

func TestLookupStepsGrowWithDepth(t *testing.T) {
	m, _ := newTestMap(t)
	ctx := context.Background()
	_, steps1, err := m.Lookup(ctx, gaddr.Zero)
	if err != nil || steps1 != 1 {
		t.Fatalf("root lookup steps = %d, %v", steps1, err)
	}
	const regions = maxEntries * 2
	chunk, _ := m.ReserveRange(ctx, regions*0x2000, PageSize)
	for i := 0; i < regions; i++ {
		r := gaddr.Range{Start: chunk.Start.MustAdd(uint64(i) * 0x2000), Size: 0x1000}
		if err := m.Insert(ctx, Entry{Range: r, Homes: []ktypes.NodeID{1}}); err != nil {
			t.Fatal(err)
		}
	}
	_, deepSteps, err := m.Lookup(ctx, chunk.Start.MustAdd(1))
	if err != nil {
		t.Fatal(err)
	}
	if deepSteps <= steps1 {
		t.Fatalf("deep lookup steps = %d, want > %d", deepSteps, steps1)
	}
}

func TestCorruptNodeRejected(t *testing.T) {
	m, io := newTestMap(t)
	ctx := context.Background()
	io.mu.Lock()
	io.pages[pageAddr(0)][0] = 0xFF // clobber magic
	io.mu.Unlock()
	if _, _, err := m.Lookup(ctx, gaddr.Zero); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt lookup err = %v", err)
	}
}

// TestInitRefusesCorruptRoot damages a populated root and initializes the
// map again, as a genesis restart does: Init must report ErrCorrupt and
// leave the page alone. Writing a fresh root over it would forget every
// region and rewind the cursor, so the next reservation would hand out a
// chunk already in use.
func TestInitRefusesCorruptRoot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(page []byte)
	}{
		{"magic", func(page []byte) { page[0] = 0xFF }},
		{"entry count", func(page []byte) { binary.LittleEndian.PutUint16(page[4:], maxEntries+1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, io := newTestMap(t)
			ctx := context.Background()
			chunk, err := m.ReserveRange(ctx, 1<<20, PageSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Insert(ctx, Entry{Range: gaddr.Range{Start: chunk.Start, Size: PageSize}, Homes: []ktypes.NodeID{1}}); err != nil {
				t.Fatal(err)
			}
			io.mu.Lock()
			tc.damage(io.pages[pageAddr(0)])
			damaged := bytes.Clone(io.pages[pageAddr(0)])
			clear(io.writes)
			io.mu.Unlock()
			if err := m.Init(ctx, []ktypes.NodeID{1}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Init over a damaged root: %v, want ErrCorrupt", err)
			}
			io.mu.Lock()
			defer io.mu.Unlock()
			if io.writes[pageAddr(0)] != 0 || !bytes.Equal(io.pages[pageAddr(0)], damaged) {
				t.Fatal("Init rewrote a damaged root")
			}
		})
	}
}

// flatIO is a single-threaded PageIO over preallocated pages that
// allocates nothing itself, so what a test measures through it is the
// map's own cost.
type flatIO struct {
	pages   [2][PageSize]byte
	scratch [PageSize]byte
}

func (io *flatIO) page(a gaddr.Addr) []byte { return io.pages[a.Lo/PageSize][:] }

func (io *flatIO) ReadPage(_ context.Context, a gaddr.Addr) ([]byte, func(), error) {
	return io.page(a), func() {}, nil
}

func (io *flatIO) MutatePage(_ context.Context, a gaddr.Addr, fn func([]byte) (bool, error)) error {
	copy(io.scratch[:], io.page(a))
	if changed, err := fn(io.scratch[:]); err != nil || !changed {
		return err
	}
	copy(io.page(a), io.scratch[:])
	return nil
}

// TestMapOpsAllocGate holds every map operation on a 79-entry root to a
// budget that does not grow with the node: no operation copies the node
// or its entries off the page. What is left is fixed per call: the PageIO
// callback with the result it hands back (2 objects per mutated page) and
// the caller's own copy of a looked-up home list (1). Copying the node
// costs one object more, and 4.5 KB on a full node.
func TestMapOpsAllocGate(t *testing.T) {
	m := New(new(flatIO))
	ctx := context.Background()
	if err := m.Init(ctx, []ktypes.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	chunk, err := m.ReserveRange(ctx, maxEntries*PageSize, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	region := func(i int) gaddr.Range {
		return gaddr.Range{Start: chunk.Start.MustAdd(uint64(i) * PageSize), Size: PageSize}
	}
	homes := []ktypes.NodeID{1, 2, 3, 4}
	for i := 0; i < maxEntries-2; i++ { // 78 regions beside the map's own
		if err := m.Insert(ctx, Entry{Range: region(i), Homes: homes}); err != nil {
			t.Fatal(err)
		}
	}
	last, mid := region(maxEntries-2), region(maxEntries/2).Start
	for _, op := range []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"insert and remove", 4, func() error {
			if err := m.Insert(ctx, Entry{Range: last, Homes: homes}); err != nil {
				return err
			}
			return m.Remove(ctx, last.Start)
		}},
		{"set homes", 2, func() error { return m.SetHomes(ctx, mid, homes) }},
		{"reserve range", 2, func() error { _, err := m.ReserveRange(ctx, PageSize, PageSize); return err }},
		{"lookup", 1, func() error { _, _, err := m.Lookup(ctx, mid); return err }},
	} {
		var err error
		got := testing.AllocsPerRun(100, func() {
			if e := op.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		t.Logf("%s: %.0f objects", op.name, got)
		if got > op.budget {
			t.Errorf("%s on a %d-entry root allocates %.0f objects, budget is %.0f", op.name, maxEntries-1, got, op.budget)
		}
	}
}

func TestHomesClampedToMax(t *testing.T) {
	m, _ := newTestMap(t)
	ctx := context.Background()
	chunk, _ := m.ReserveRange(ctx, 1<<20, PageSize)
	r := gaddr.Range{Start: chunk.Start, Size: 0x1000}
	homes := []ktypes.NodeID{1, 2, 3, 4, 5, 6}
	if err := m.Insert(ctx, Entry{Range: r, Homes: homes}); err != nil {
		t.Fatal(err)
	}
	entry, _, err := m.Lookup(ctx, r.Start)
	if err != nil {
		t.Fatal(err)
	}
	if len(entry.Homes) != MaxHomes {
		t.Fatalf("homes = %v, want %d entries (non-exhaustive list)", entry.Homes, MaxHomes)
	}
}

// Property: any set of disjoint inserted regions remains resolvable with
// correct homes, and uninserted addresses miss.
func TestQuickInsertLookup(t *testing.T) {
	f := func(sizesSeed []uint8, homeSeed uint8) bool {
		if len(sizesSeed) > 120 {
			sizesSeed = sizesSeed[:120]
		}
		io := newMemIO()
		m := New(io)
		ctx := context.Background()
		if m.Init(ctx, []ktypes.NodeID{1}) != nil {
			return false
		}
		type rec struct {
			r    gaddr.Range
			home ktypes.NodeID
		}
		var recs []rec
		cursor, err := m.ReserveRange(ctx, uint64(len(sizesSeed)+1)*0x20000, PageSize)
		if err != nil {
			return false
		}
		next := cursor.Start
		for i, s := range sizesSeed {
			size := (uint64(s%16) + 1) * PageSize
			r := gaddr.Range{Start: next, Size: size}
			home := ktypes.NodeID(homeSeed%8 + 1 + uint8(i%3))
			if m.Insert(ctx, Entry{Range: r, Homes: []ktypes.NodeID{home}}) != nil {
				return false
			}
			recs = append(recs, rec{r, home})
			next = next.MustAdd(size + PageSize) // leave a gap
		}
		for _, rc := range recs {
			entry, _, err := m.Lookup(ctx, rc.r.Start.MustAdd(rc.r.Size-1))
			if err != nil || entry.Range != rc.r || entry.Homes[0] != rc.home {
				return false
			}
			// The gap after each region misses.
			if _, _, err := m.Lookup(ctx, rc.r.Start.MustAdd(rc.r.Size)); !errors.Is(err, ErrNotFound) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInsertsSerializedByIO(t *testing.T) {
	// The daemon serializes map mutations at the map home; the package
	// must still be safe when its PageIO serializes MutatePage calls.
	m, _ := newTestMap(t)
	ctx := context.Background()
	chunk, _ := m.ReserveRange(ctx, 64*0x10000, PageSize)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				idx := uint64(g*8 + i)
				r := gaddr.Range{Start: chunk.Start.MustAdd(idx * 0x10000), Size: 0x1000}
				if err := m.Insert(ctx, Entry{Range: r, Homes: []ktypes.NodeID{1}}); err != nil {
					errs[g] = fmt.Errorf("insert %d: %w", idx, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	_ = m.Walk(ctx, func(Entry) bool { count++; return true })
	if count != 65 {
		t.Fatalf("walk count = %d, want 65", count)
	}
}

// TestMutationsWriteBackOnlyChangedPages counts the pages each operation
// writes back. A mutation that merely descends through a tree node, or
// that changes nothing, must not write that node: every write-back bumps
// the page's version and invalidates remote readers' cached copies.
func TestMutationsWriteBackOnlyChangedPages(t *testing.T) {
	m, io := newTestMap(t)
	ctx := context.Background()
	const regions = maxEntries + 10
	chunk, err := m.ReserveRange(ctx, regions*0x2000+1<<20, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	var rs []gaddr.Range
	for i := 0; i < regions; i++ {
		r := gaddr.Range{Start: chunk.Start.MustAdd(uint64(i) * 0x2000), Size: 0x1000}
		rs = append(rs, r)
		if err := m.Insert(ctx, Entry{Range: r, Homes: []ktypes.NodeID{1}}); err != nil {
			t.Fatal(err)
		}
	}
	root, child := pageAddr(0), pageAddr(1)
	if _, steps, err := m.Lookup(ctx, rs[0].Start); err != nil || steps != 2 {
		t.Fatalf("first region: %d lookup steps, %v; want it in the root's first child", steps, err)
	}
	last := rs[len(rs)-1]
	for _, tc := range []struct {
		name    string
		op      func() error
		wantErr error
		want    map[gaddr.Addr]int
	}{
		{"init again", func() error { return m.Init(ctx, []ktypes.NodeID{2}) }, nil, nil},
		{"lookup", func() error { _, _, err := m.Lookup(ctx, rs[0].Start); return err }, nil, nil},
		{"walk", func() error { return m.Walk(ctx, func(Entry) bool { return true }) }, nil, nil},
		{"set homes in child", func() error { return m.SetHomes(ctx, rs[1].Start, []ktypes.NodeID{4}) }, nil, map[gaddr.Addr]int{child: 1}},
		{"remove from child", func() error { return m.Remove(ctx, rs[0].Start) }, nil, map[gaddr.Addr]int{child: 1}},
		{"insert into child", func() error {
			return m.Insert(ctx, Entry{Range: gaddr.Range{Start: rs[2].Start.MustAdd(0x1000), Size: 0x1000}})
		}, nil, map[gaddr.Addr]int{child: 1}},
		{"insert into root", func() error {
			return m.Insert(ctx, Entry{Range: gaddr.Range{Start: last.Start.MustAdd(0x2000), Size: 0x1000}})
		}, nil, map[gaddr.Addr]int{root: 1}},
		{"remove unknown", func() error { return m.Remove(ctx, rs[0].Start) }, ErrNotFound, nil},
		{"overlapping insert", func() error {
			return m.Insert(ctx, Entry{Range: gaddr.Range{Start: rs[3].Start, Size: 0x1000}})
		}, ErrOverlap, nil},
		{"reserve range", func() error { _, err := m.ReserveRange(ctx, PageSize, PageSize); return err }, nil, map[gaddr.Addr]int{root: 1}},
	} {
		io.mu.Lock()
		clear(io.writes)
		io.mu.Unlock()
		if err := tc.op(); !errors.Is(err, tc.wantErr) {
			t.Fatalf("%s: %v, want %v", tc.name, err, tc.wantErr)
		}
		io.mu.Lock()
		got := maps.Clone(io.writes)
		io.mu.Unlock()
		if !maps.Equal(got, tc.want) {
			t.Fatalf("%s wrote back %v, want %v", tc.name, got, tc.want)
		}
	}
}
