package store

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/pagedir"
)

// TestPageTableModel drives a RAM tier and its page directory through
// seeded random touches, stores, reads, pins, evictions, drops and region
// teardowns, and checks every step against a reference map keyed by
// address: slot arithmetic, directory entries, residency, pins and LRU
// order, including a region at a high 128-bit address.
func TestPageTableModel(t *testing.T) {
	type region struct {
		start gaddr.Addr
		pages int
		ps    uint64
	}
	regions := []region{
		{gaddr.FromUint64(1 << 20), 16, 4096},
		{gaddr.FromUint64(1 << 30), 600, 512}, // more than one chunk of slots
		{gaddr.New(0xfeed, 1<<40), 8, 1 << 16},
	}
	type refPage struct {
		version  uint64
		listed   bool
		resident bool
		data     byte
		pins     int
		lastUse  int
	}
	const capacity = 12
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := pagedir.New()
		var evicted []gaddr.Addr
		s := newMemStore(dir, capacity, func(p gaddr.Addr, _ *frame.Frame) error {
			evicted = append(evicted, p)
			return nil
		})
		ref := map[gaddr.Addr]*refPage{}
		clock := 0
		table := func(r region) *pagedir.Table {
			return dir.Table(r.start, uint64(r.pages)*r.ps, r.ps)
		}
		page := func() (region, gaddr.Addr, *refPage) {
			r := regions[rng.Intn(len(regions))]
			a := r.start.MustAdd(uint64(rng.Intn(r.pages)) * r.ps)
			if ref[a] == nil {
				ref[a] = &refPage{}
			}
			return r, a, ref[a]
		}
		residentCount := func() int {
			n := 0
			for _, p := range ref {
				if p.resident {
					n++
				}
			}
			return n
		}
		for step := 0; step < 4000; step++ {
			r, a, want := page()
			tab := table(r)
			// Any address inside the page reaches its record.
			rec := tab.Touch(a.MustAdd(uint64(rng.Int63n(int64(r.ps)))))
			if rec == nil || rec.Page != a || dir.Find(a) != tab || tab.Rec(a) != rec {
				t.Fatalf("seed %d step %d: page %v resolves to record %v in table %p, want its own in %p", seed, step, a, rec, dir.Find(a), tab)
			}
			clock++
			switch op := rng.Intn(8); op {
			case 0: // directory touch
				tab.Update(a, func(e *pagedir.Entry) { e.Version++ })
				want.version++
				want.listed = true
			case 1, 2: // store, evicting the least recently used unpinned page when full
				f := frame.Copy([]byte{byte(step)})
				err := s.PutPage(rec, f)
				f.Release()
				if !want.resident && residentCount() >= capacity {
					var victim gaddr.Addr
					var vp *refPage
					for va, p := range ref {
						if p.resident && p.pins == 0 && (vp == nil || p.lastUse < vp.lastUse) {
							victim, vp = va, p
						}
					}
					if vp == nil {
						if !errors.Is(err, ErrFull) {
							t.Fatalf("seed %d step %d: Put into a full, pinned store: %v, want ErrFull", seed, step, err)
						}
						continue
					}
					if n := len(evicted); n == 0 || evicted[n-1] != victim {
						t.Fatalf("seed %d step %d: evicted %v, want the LRU page %v", seed, step, evicted, victim)
					}
					*vp = refPage{version: vp.version, listed: vp.listed}
				}
				if err != nil {
					t.Fatalf("seed %d step %d: Put: %v", seed, step, err)
				}
				want.resident, want.data, want.lastUse = true, byte(step), clock
			case 3: // read
				f, ok := s.GetPage(rec)
				if ok != want.resident || ok && f.Bytes()[0] != want.data {
					t.Fatalf("seed %d step %d: Get %v = %v, want resident %v holding %d", seed, step, a, ok, want.resident, want.data)
				}
				if ok {
					f.Release()
					if want.pins == 0 {
						want.lastUse = clock
					}
				}
			case 4: // pin
				if s.Pin(rec) != want.resident {
					t.Fatalf("seed %d step %d: Pin of %v disagrees with residency %v", seed, step, a, want.resident)
				}
				if want.resident {
					want.pins++
				}
			case 5: // unpin
				err := s.Unpin(rec)
				if (err == nil) != (want.pins > 0) {
					t.Fatalf("seed %d step %d: Unpin of %v with %d pins: %v", seed, step, a, want.pins, err)
				}
				if err == nil {
					want.pins--
					want.lastUse = clock
				}
			case 6: // drop the local copy unless pinned
				gone := s.DeleteUnpinned(rec)
				if gone != (want.pins == 0) {
					t.Fatalf("seed %d step %d: DeleteUnpinned of %v with %d pins reported %v", seed, step, a, want.pins, gone)
				}
				if gone {
					want.resident = false
				}
			case 7: // region teardown, now and then
				if rng.Intn(20) != 0 {
					continue
				}
				var recs []*pagedir.Page
				dir.Drop(r.start).Each(func(p *pagedir.Page) { recs = append(recs, p) })
				for _, p := range recs {
					s.DeletePage(p)
				}
				for pa := range ref {
					if off, ok := r.start.Distance(pa); ok && off < uint64(r.pages)*r.ps {
						delete(ref, pa)
					}
				}
				if dir.Find(a) != nil {
					t.Fatalf("seed %d step %d: torn-down region still resolves %v", seed, step, a)
				}
				continue
			}
			if e, ok := tab.Lookup(a); ok != want.listed || e.Version != want.version {
				t.Fatalf("seed %d step %d: entry of %v = %+v (listed %v), want version %d listed %v", seed, step, a, e, ok, want.version, want.listed)
			}
			if got := s.Len(); got != residentCount() {
				t.Fatalf("seed %d step %d: %d resident pages, model has %d", seed, step, got, residentCount())
			}
		}
		var wantPages []gaddr.Addr
		for a, p := range ref {
			if p.resident {
				wantPages = append(wantPages, a)
			}
		}
		got := s.Pages()
		slices.SortFunc(got, gaddr.Addr.Cmp)
		slices.SortFunc(wantPages, gaddr.Addr.Cmp)
		if !slices.Equal(got, wantPages) {
			t.Fatalf("seed %d: resident pages %v, model %v", seed, got, wantPages)
		}
	}
}
