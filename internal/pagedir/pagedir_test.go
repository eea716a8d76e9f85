package pagedir

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"khazana/internal/enc"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
)

func pg(n uint64) gaddr.Addr { return gaddr.FromUint64(n * 0x1000) }

// testDir is a directory whose one table spans every test page: entry
// calls reach the table, directory-wide ones the directory.
type testDir struct {
	*Dir
	*Table
}

func newTestDir() testDir {
	d := New()
	return testDir{d, d.Table(gaddr.Zero, 1<<32, 0x1000)}
}

func TestLookupAbsent(t *testing.T) {
	d := newTestDir()
	if _, ok := d.Lookup(pg(1)); ok {
		t.Fatal("absent entry found")
	}
}

func TestUpdateCreatesAndMutates(t *testing.T) {
	d := newTestDir()
	d.Update(pg(1), func(e *Entry) {
		e.State = Owned
		e.Owner = 3
		e.Version = 7
	})
	got, ok := d.Lookup(pg(1))
	if !ok || got.State != Owned || got.Owner != 3 || got.Version != 7 {
		t.Fatalf("entry = %+v, %v", got, ok)
	}
	d.Update(pg(1), func(e *Entry) { e.Version++ })
	got, _ = d.Lookup(pg(1))
	if got.Version != 8 {
		t.Fatalf("Version = %d", got.Version)
	}
	if got.Page != pg(1) {
		t.Fatalf("Page = %v", got.Page)
	}
}

// TestLookupSharesPublishedCopyset: Lookup hands out the stored copyset
// without copying it, and because AddSharer and RemoveSharer publish a new
// slice, a copyset already handed out never changes.
func TestLookupSharesPublishedCopyset(t *testing.T) {
	d := newTestDir()
	d.Update(pg(1), func(e *Entry) {
		e.AddSharer(2)
		e.AddSharer(3)
	})
	first, _ := d.Lookup(pg(1))
	again, _ := d.Lookup(pg(1))
	if &first.Copyset[0] != &again.Copyset[0] {
		t.Fatal("Lookup copied the copyset")
	}
	if allocs := testing.AllocsPerRun(100, func() { d.Lookup(pg(1)) }); allocs != 0 {
		t.Fatalf("Lookup allocates %.1f objects, want 0", allocs)
	}
	d.Update(pg(1), func(e *Entry) { e.AddSharer(4) })
	added, _ := d.Lookup(pg(1))
	d.Update(pg(1), func(e *Entry) { e.RemoveSharer(2) })
	removed, _ := d.Lookup(pg(1))
	d.Update(pg(1), func(e *Entry) { e.AddSharer(3) }) // present: no new slice
	unchanged, _ := d.Lookup(pg(1))
	for _, c := range []struct {
		name string
		got  []ktypes.NodeID
		want string
	}{
		{"first", first.Copyset, "[n2 n3]"},
		{"after AddSharer", added.Copyset, "[n2 n3 n4]"},
		{"after RemoveSharer", removed.Copyset, "[n3 n4]"},
		{"after re-adding a sharer", unchanged.Copyset, "[n3 n4]"},
	} {
		if got := fmt.Sprint(c.got); got != c.want {
			t.Fatalf("%s copyset = %s, want %s", c.name, got, c.want)
		}
	}
	if &removed.Copyset[0] != &unchanged.Copyset[0] {
		t.Fatal("adding a present sharer published a new copyset")
	}
}

// TestCopysetReadersRaceWriters: readers iterate copysets Lookup returned
// while writers add, remove and reset sharers under Update. Under -race an
// in-place write to a published slice is reported; without it, a reader
// that sees its copyset change after the lookup fails the test.
func TestCopysetReadersRaceWriters(t *testing.T) {
	d := newTestDir()
	const pages = 4
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e, _ := d.Lookup(pg(uint64(i % pages)))
				before := fmt.Sprint(e.Copyset)
				seen := make(map[ktypes.NodeID]bool, len(e.Copyset))
				for _, n := range e.Copyset {
					if seen[n] {
						t.Errorf("copyset %v lists %v twice", e.Copyset, n)
						return
					}
					seen[n] = true
				}
				if after := fmt.Sprint(e.Copyset); after != before {
					t.Errorf("copyset changed after Lookup: %s -> %s", before, after)
					return
				}
			}
		}()
	}
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				n := ktypes.NodeID(i%7 + 1)
				d.Update(pg(uint64(i%pages)), func(e *Entry) {
					switch (i + w) % 3 {
					case 0:
						e.AddSharer(n)
					case 1:
						e.RemoveSharer(n)
					default:
						e.Copyset = []ktypes.NodeID{n}
					}
				})
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestCopysetModel runs seeded random AddSharer, RemoveSharer and
// RemoveSharers calls against a map model: membership matches after every
// step, and every copyset Lookup ever returned still holds what it held
// when returned — swapping spare back in never writes a published slice.
func TestCopysetModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := newTestDir()
		const pages = 3
		model := make([]map[ktypes.NodeID]bool, pages)
		for i := range model {
			model[i] = make(map[ktypes.NodeID]bool)
		}
		type handed struct {
			got  []ktypes.NodeID
			want string
		}
		var seen []handed
		swaps := 0
		for step := 0; step < 500; step++ {
			p := rng.Intn(pages)
			n := ktypes.NodeID(rng.Intn(5) + 1)
			before, _ := d.Lookup(pg(uint64(p)))
			switch rng.Intn(3) {
			case 0:
				d.Update(pg(uint64(p)), func(e *Entry) { e.AddSharer(n) })
				model[p][n] = true
			case 1:
				d.Update(pg(uint64(p)), func(e *Entry) { e.RemoveSharer(n) })
				delete(model[p], n)
			default:
				keep := ktypes.NodeID(rng.Intn(5) + 1)
				drop := func(c ktypes.NodeID) bool { return c != keep && c%2 == n%2 }
				d.Update(pg(uint64(p)), func(e *Entry) { e.RemoveSharers(drop) })
				for c := range model[p] {
					if drop(c) {
						delete(model[p], c)
					}
				}
			}
			e, _ := d.Lookup(pg(uint64(p)))
			got := make(map[ktypes.NodeID]bool, len(e.Copyset))
			for _, c := range e.Copyset {
				if got[c] {
					t.Fatalf("seed %d step %d: copyset %v lists %v twice", seed, step, e.Copyset, c)
				}
				got[c] = true
			}
			if !maps.Equal(got, model[p]) {
				t.Fatalf("seed %d step %d: copyset %v, model %v", seed, step, e.Copyset, model[p])
			}
			if len(e.Copyset) > 0 && len(before.spare) > 0 && &e.Copyset[0] == &before.spare[0] {
				swaps++
			}
			seen = append(seen, handed{e.Copyset, fmt.Sprint(e.Copyset)})
		}
		if swaps == 0 {
			t.Fatalf("seed %d: no step swapped spare back in", seed)
		}
		for i, h := range seen {
			if now := fmt.Sprint(h.got); now != h.want {
				t.Fatalf("seed %d: copyset handed out at step %d changed from %s to %s", seed, i, h.want, now)
			}
		}
	}
}

// TestCopysetPingPongNoAlloc: a write grant revoking a reader and the next
// read grant re-adding it swap between the two copysets, so after the first
// round neither move allocates.
func TestCopysetPingPongNoAlloc(t *testing.T) {
	d := newTestDir()
	d.Update(pg(1), func(e *Entry) {
		e.AddSharer(1)
		e.AddSharer(2)
	})
	revoked := func(n ktypes.NodeID) bool { return n == 2 }
	round := func() {
		d.Update(pg(1), func(e *Entry) { e.RemoveSharers(revoked) })
		d.Update(pg(1), func(e *Entry) { e.AddSharer(2) })
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a revoke and re-add round allocates %.1f objects, want 0", allocs)
	}
	if e, _ := d.Lookup(pg(1)); fmt.Sprint(e.Copyset) != "[n1 n2]" {
		t.Fatalf("copyset after the rounds = %v, want [n1 n2]", e.Copyset)
	}
}

func TestCopysetOps(t *testing.T) {
	var e Entry
	e.AddSharer(1)
	e.AddSharer(2)
	e.AddSharer(1) // duplicate
	if len(e.Copyset) != 2 {
		t.Fatalf("Copyset = %v", e.Copyset)
	}
	if !e.InCopyset(1) || !e.InCopyset(2) || e.InCopyset(3) {
		t.Fatal("InCopyset wrong")
	}
	e.RemoveSharer(1)
	if e.InCopyset(1) || len(e.Copyset) != 1 {
		t.Fatalf("after remove = %v", e.Copyset)
	}
	e.RemoveSharer(9) // absent: no-op
	if len(e.Copyset) != 1 {
		t.Fatal("removing absent sharer changed copyset")
	}
}

func TestDelete(t *testing.T) {
	d := newTestDir()
	d.Update(pg(1), func(e *Entry) {})
	d.Delete(pg(1))
	if _, ok := d.Lookup(pg(1)); ok {
		t.Fatal("deleted entry found")
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestPagesAndHomedPages(t *testing.T) {
	d := newTestDir()
	d.Update(pg(1), func(e *Entry) { e.HomedLocal = true })
	d.Update(pg(2), func(e *Entry) {})
	d.Update(pg(3), func(e *Entry) { e.HomedLocal = true })
	if got := len(d.Pages()); got != 3 {
		t.Fatalf("Pages = %d", got)
	}
	homed := d.HomedPages()
	if len(homed) != 2 {
		t.Fatalf("HomedPages = %v", homed)
	}
	for _, p := range homed {
		if p != pg(1) && p != pg(3) {
			t.Fatalf("unexpected homed page %v", p)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := newTestDir()
	d.Update(pg(1), func(e *Entry) {
		e.HomedLocal = true
		e.State = Owned
		e.Owner = 1
		e.Copyset = []ktypes.NodeID{1, 4}
		e.Version = 12
		e.Dirty = true
	})
	d.Update(pg(2), func(e *Entry) { e.State = Shared }) // remote-homed: not persisted

	var buf bytes.Buffer
	if err := d.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	d2 := newTestDir()
	if err := d2.LoadFrom(&buf, d2.Find); err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 1 {
		t.Fatalf("restored Len = %d", d2.Len())
	}
	got, ok := d2.Lookup(pg(1))
	if !ok || got.State != Owned || got.Owner != 1 || got.Version != 12 || !got.Dirty || !got.HomedLocal {
		t.Fatalf("restored entry = %+v", got)
	}
	if len(got.Copyset) != 2 || got.Copyset[1] != 4 {
		t.Fatalf("restored copyset = %v", got.Copyset)
	}

	// The same entry in the layout before the eventual protocol's stamp
	// pair left it: refused by its magic, not misread.
	old := enc.NewEncoder(64)
	old.U32(0x4b50_4449)
	old.U32(1)
	old.Addr(pg(1))
	old.U8(uint8(Owned))
	old.NodeID(1)
	old.NodeIDs([]ktypes.NodeID{1, 4})
	old.U64(12)
	old.Bool(true)
	old.I64(999)
	old.NodeID(4)
	d3 := newTestDir()
	if err := d3.LoadFrom(bytes.NewReader(old.Bytes()), d3.Find); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("old-layout file: err = %v, want bad magic", err)
	}
	if d3.Len() != 0 {
		t.Fatalf("old-layout file restored %d entries", d3.Len())
	}
}

// TestEntryPacksInto80Bytes: every page record embeds an entry, so its
// layout is part of the per-page memory cost.
func TestEntryPacksInto80Bytes(t *testing.T) {
	if s := unsafe.Sizeof(Entry{}); s != 80 {
		t.Fatalf("Entry is %d bytes, want 80", s)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	d := newTestDir()
	if err := d.LoadFrom(bytes.NewReader([]byte("not a pagedir")), d.Find); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := d.LoadFrom(bytes.NewReader(nil), d.Find); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated valid prefix.
	src := newTestDir()
	src.Update(pg(1), func(e *Entry) { e.HomedLocal = true })
	var buf bytes.Buffer
	_ = src.SaveTo(&buf)
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if err := d.LoadFrom(bytes.NewReader(full[:cut]), d.Find); err == nil {
			t.Fatalf("cut=%d accepted", cut)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	d := newTestDir()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				d.Update(pg(uint64(j%10)), func(e *Entry) { e.Version++ })
			}
		}()
	}
	wg.Wait()
	var total uint64
	for i := uint64(0); i < 10; i++ {
		e, _ := d.Lookup(pg(i))
		total += e.Version
	}
	if total != 8*200 {
		t.Fatalf("total versions = %d, want %d", total, 8*200)
	}
}

// Property: save/load preserves every homed entry for arbitrary field
// values.
func TestQuickPersistRoundTrip(t *testing.T) {
	f := func(pagesSeed []uint16, version uint64, owner uint32, dirty bool) bool {
		d := newTestDir()
		seen := make(map[gaddr.Addr]bool)
		for _, s := range pagesSeed {
			p := pg(uint64(s))
			seen[p] = true
			d.Update(p, func(e *Entry) {
				e.HomedLocal = true
				e.Version = version
				e.Owner = ktypes.NodeID(owner)
				e.Dirty = dirty
				e.AddSharer(ktypes.NodeID(s%5 + 1))
			})
		}
		var buf bytes.Buffer
		if d.SaveTo(&buf) != nil {
			return false
		}
		d2 := newTestDir()
		if d2.LoadFrom(&buf, d2.Find) != nil {
			return false
		}
		if d2.Len() != len(seen) {
			return false
		}
		for p := range seen {
			got, ok := d2.Lookup(p)
			if !ok || got.Version != version || got.Owner != ktypes.NodeID(owner) || got.Dirty != dirty {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPageTableFirstTouchAllocGate: a region's page table costs its slots
// on the region's first touch and one record per page touched, so a
// 16-page region first touched at one page makes three objects (table,
// slots, record) of at most 400 bytes, a second page one more object,
// and a page touched again nothing. The index entry of a dropped table is
// reused by the next region.
func TestPageTableFirstTouchAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const ps, pages = 0x1000, 16
	d := New()
	next := uint64(1 << 20)
	region := func() *Table {
		next += pages * ps
		return d.Table(gaddr.FromUint64(next), pages*ps, ps)
	}
	for i := 0; i < 4; i++ { // size the index
		d.Drop(region().Start())
	}
	// The least of three rounds: an allocation the runtime makes in the
	// background lands in one round, not in all three.
	const cycles = 100
	objects, bytes := math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			tab := region()
			tab.Update(tab.Start(), func(e *Entry) { e.Version++ })
			d.Drop(tab.Start())
		}
		runtime.ReadMemStats(&after)
		objects = math.Min(objects, float64(after.Mallocs-before.Mallocs)/cycles)
		bytes = math.Min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/cycles)
	}
	t.Logf("first touch of a 16-page region: %.2f objects, %.0f B", objects, bytes)
	if objects > 3 || bytes > 400 {
		t.Fatalf("first touch of a 16-page region allocates %.2f objects and %.0f B, budget is 3 and 400", objects, bytes)
	}
	tab := region()
	tab.Touch(tab.Start())
	if n := testing.AllocsPerRun(100, func() { tab.Touch(tab.Start()) }); n != 0 {
		t.Fatalf("touching a page again allocates %.1f objects, want 0", n)
	}
	i := uint64(0)
	if n := testing.AllocsPerRun(10, func() { i++; tab.Touch(tab.Start().MustAdd(i * ps)) }); n != 1 {
		t.Fatalf("first touch of a further page allocates %.1f objects, want 1", n)
	}
}
