package store

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/pagedir"
)

func page(n uint64) gaddr.Addr { return gaddr.FromUint64(n * 0x1000) }

// putBytes stores a copy of data for the page.
func putBytes(s interface {
	Put(gaddr.Addr, *frame.Frame) error
}, page gaddr.Addr, data []byte) error {
	f := frame.Copy(data)
	err := s.Put(page, f)
	f.Release()
	return err
}

// getCopy returns a private copy of the page's contents.
func getCopy(s *MemStore, page gaddr.Addr) ([]byte, bool) {
	f, ok := s.Get(page)
	if !ok {
		return nil, false
	}
	out := append([]byte(nil), f.Bytes()...)
	f.Release()
	return out, true
}

// rec returns the page's record in the store's directory, made on first
// touch.
func rec(s *MemStore, page gaddr.Addr) *pagedir.Page { return s.rec(page, true) }

func TestMemPutGet(t *testing.T) {
	s := NewMemStore(10, nil)
	if err := putBytes(s, page(1), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, ok := getCopy(s, page(1))
	if !ok || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := getCopy(s, page(2)); ok {
		t.Fatal("absent page found")
	}
	// Overwrite.
	if err := putBytes(s, page(1), []byte("world")); err != nil {
		t.Fatal(err)
	}
	got, _ = getCopy(s, page(1))
	if string(got) != "world" {
		t.Fatalf("after overwrite = %q", got)
	}
}

func TestMemGetSharesFrame(t *testing.T) {
	s := NewMemStore(10, nil)
	f := frame.Copy([]byte("data"))
	if err := s.Put(page(1), f); err != nil {
		t.Fatal(err)
	}
	// Put borrows: the caller's reference plus the store's.
	if f.Refs() != 2 {
		t.Fatalf("after Put Refs = %d, want 2", f.Refs())
	}
	g, ok := s.Get(page(1))
	if !ok {
		t.Fatal("resident page not found")
	}
	if g != f {
		t.Fatal("cache hit did not share the stored frame")
	}
	if g.Refs() != 3 {
		t.Fatalf("after Get Refs = %d, want 3", g.Refs())
	}
	g.Release()
	f.Release()
	// A caller that wants private bytes copies explicitly.
	c, _ := getCopy(s, page(1))
	c[0] = 'X'
	again, _ := getCopy(s, page(1))
	if string(again) != "data" {
		t.Fatal("a private copy aliased the store's frame")
	}
}

func TestMemPutReleasesOverwrittenFrame(t *testing.T) {
	s := NewMemStore(10, nil)
	f1 := frame.Copy([]byte("one"))
	_ = s.Put(page(1), f1)
	f2 := frame.Copy([]byte("two"))
	_ = s.Put(page(1), f2)
	if f1.Refs() != 1 {
		t.Fatalf("overwritten frame Refs = %d, want 1 (caller only)", f1.Refs())
	}
	f1.Release()
	f2.Release()
	if got, _ := getCopy(s, page(1)); string(got) != "two" {
		t.Fatalf("after overwrite = %q", got)
	}
}

func TestMemDeleteReleasesFrame(t *testing.T) {
	s := NewMemStore(10, nil)
	f := frame.Copy([]byte{1})
	_ = s.Put(page(1), f)
	s.DeletePage(rec(s, page(1)))
	if f.Refs() != 1 {
		t.Fatalf("after Delete Refs = %d, want 1 (caller only)", f.Refs())
	}
	f.Release()
}

// TestMemStorePutNoAlloc: resident pages are kept by value, so a page
// re-fetched after an invalidation — Put of a non-resident page into a
// store with room, later Deleted — allocates nothing.
func TestMemStorePutNoAlloc(t *testing.T) {
	s := NewMemStore(16, nil)
	for i := uint64(0); i < 4; i++ {
		if err := putBytes(s, page(100+i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	f := frame.Copy([]byte("refetched"))
	defer f.Release()
	avg := testing.AllocsPerRun(200, func() {
		for i := uint64(0); i < 8; i++ {
			if err := s.Put(page(i), f); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(0); i < 8; i++ {
			s.DeletePage(rec(s, page(i)))
		}
	})
	if avg != 0 {
		t.Fatalf("8 Puts of non-resident pages and their Deletes allocate %.2f objects, want 0", avg)
	}
}

func TestMemLRUEviction(t *testing.T) {
	var evicted []gaddr.Addr
	s := NewMemStore(3, func(p gaddr.Addr, _ *frame.Frame) error {
		evicted = append(evicted, p)
		return nil
	})
	for i := uint64(1); i <= 3; i++ {
		_ = putBytes(s, page(i), []byte{byte(i)})
	}
	// Touch page 1 so page 2 is LRU.
	if f, ok := s.Get(page(1)); ok {
		f.Release()
	}
	if err := putBytes(s, page(4), []byte{4}); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != page(2) {
		t.Fatalf("evicted = %v, want [page 2]", evicted)
	}
	if s.resident(page(2)) {
		t.Fatal("victim still resident")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestMemUnpinRefreshesRecency: a page read under a pin counts as used
// until the pin drops, so pages stored while it was pinned go first.
func TestMemUnpinRefreshesRecency(t *testing.T) {
	var evicted []gaddr.Addr
	s := NewMemStore(3, func(p gaddr.Addr, _ *frame.Frame) error {
		evicted = append(evicted, p)
		return nil
	})
	_ = putBytes(s, page(1), []byte{1})
	s.Pin(rec(s, page(1)))
	if f, ok := s.Get(page(1)); ok {
		f.Release()
	}
	_ = putBytes(s, page(2), []byte{2})
	_ = putBytes(s, page(3), []byte{3})
	if err := s.Unpin(rec(s, page(1))); err != nil {
		t.Fatal(err)
	}
	if err := putBytes(s, page(4), []byte{4}); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != page(2) {
		t.Fatalf("evicted = %v, want [page 2]", evicted)
	}
}

func TestMemPinPreventsEviction(t *testing.T) {
	s := NewMemStore(2, nil)
	_ = putBytes(s, page(1), []byte{1})
	_ = putBytes(s, page(2), []byte{2})
	if !s.Pin(rec(s, page(1))) || !s.Pin(rec(s, page(2))) {
		t.Fatal("pin failed")
	}
	if err := putBytes(s, page(3), []byte{3}); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if err := s.Unpin(rec(s, page(1))); err != nil {
		t.Fatal(err)
	}
	if err := putBytes(s, page(3), []byte{3}); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
	if s.resident(page(1)) {
		t.Fatal("unpinned page should have been victimized")
	}
	if !s.resident(page(2)) {
		t.Fatal("pinned page was victimized")
	}
}

func TestMemPinNesting(t *testing.T) {
	s := NewMemStore(1, nil)
	_ = putBytes(s, page(1), []byte{1})
	s.Pin(rec(s, page(1)))
	s.Pin(rec(s, page(1)))
	_ = s.Unpin(rec(s, page(1)))
	// Still pinned once.
	if err := putBytes(s, page(2), nil); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v", err)
	}
	_ = s.Unpin(rec(s, page(1)))
	if err := s.Unpin(rec(s, page(1))); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("extra unpin err = %v", err)
	}
	if s.Pin(rec(s, page(9))) {
		t.Fatal("pin of absent page should fail")
	}
}

func TestMemEvictCallbackErrorAborts(t *testing.T) {
	s := NewMemStore(1, func(gaddr.Addr, *frame.Frame) error {
		return fmt.Errorf("push failed")
	})
	_ = putBytes(s, page(1), []byte{1})
	if err := putBytes(s, page(2), []byte{2}); err == nil {
		t.Fatal("Put should fail when eviction callback fails")
	}
	if !s.resident(page(1)) {
		t.Fatal("page 1 should survive aborted eviction")
	}
}

func TestMemDelete(t *testing.T) {
	s := NewMemStore(10, nil)
	_ = putBytes(s, page(1), []byte{1})
	s.DeletePage(rec(s, page(1)))
	if s.resident(page(1)) {
		t.Fatal("deleted page still resident")
	}
	s.DeletePage(rec(s, page(2))) // no-op
}

func TestDiskPutGetDelete(t *testing.T) {
	s, err := NewDiskStore(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBytes(page(1), []byte("persistent")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(page(1))
	if !ok || string(got.Bytes()) != "persistent" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	got.Release()
	if _, ok := s.Get(page(2)); ok {
		t.Fatal("absent page found")
	}
	s.Delete(page(1))
	if s.Contains(page(1)) {
		t.Fatal("deleted page still resident")
	}
}

func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskStore(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = s1.PutBytes(page(7), []byte("durable"))
	_ = s1.PutBytes(gaddr.New(5, 0x3000), []byte("high half"))

	s2, err := NewDiskStore(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("reopened Len = %d", s2.Len())
	}
	got, ok := s2.Get(page(7))
	if !ok || string(got.Bytes()) != "durable" {
		t.Fatalf("reopened Get = %v, %v", got, ok)
	}
	got.Release()
	got, ok = s2.Get(gaddr.New(5, 0x3000))
	if !ok || string(got.Bytes()) != "high half" {
		t.Fatalf("reopened high Get = %v, %v", got, ok)
	}
	got.Release()
}

func TestDiskBoundedEviction(t *testing.T) {
	var evicted []gaddr.Addr
	s, err := NewDiskStore(t.TempDir(), 2, func(p gaddr.Addr, _ *frame.Frame) error {
		evicted = append(evicted, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.PutBytes(page(1), []byte{1})
	_ = s.PutBytes(page(2), []byte{2})
	if f, ok := s.Get(page(1)); ok { // page 2 becomes LRU
		f.Release()
	}
	if err := s.PutBytes(page(3), []byte{3}); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != page(2) {
		t.Fatalf("evicted = %v", evicted)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestDiskEvictionCallbackSeesData(t *testing.T) {
	var got []byte
	s, err := NewDiskStore(t.TempDir(), 1, func(_ gaddr.Addr, f *frame.Frame) error {
		got = append([]byte(nil), f.Bytes()...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.PutBytes(page(1), []byte("precious"))
	_ = s.PutBytes(page(2), []byte{2})
	if string(got) != "precious" {
		t.Fatalf("callback data = %q", got)
	}
}

func TestTieredPromoteDemote(t *testing.T) {
	tiered, err := NewTiered(Config{MemPages: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_ = putBytes(tiered, page(1), []byte{1})
	_ = putBytes(tiered, page(2), []byte{2})
	// Page 1 is LRU; putting page 3 demotes it to disk.
	if err := putBytes(tiered, page(3), []byte{3}); err != nil {
		t.Fatal(err)
	}
	if tiered.Mem().resident(page(1)) {
		t.Fatal("page 1 should have left RAM")
	}
	if !tiered.Disk().Contains(page(1)) {
		t.Fatal("page 1 should be on disk")
	}
	// Get promotes it back.
	got, ok := tiered.Get(page(1))
	if !ok || got.Bytes()[0] != 1 {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	got.Release()
	if !tiered.Mem().resident(page(1)) {
		t.Fatal("page 1 should be promoted to RAM")
	}
}

func TestTieredFlush(t *testing.T) {
	tiered, err := NewTiered(Config{MemPages: 4, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_ = putBytes(tiered, page(1), []byte("flushed"))
	if err := tiered.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if !tiered.Disk().Contains(page(1)) {
		t.Fatal("flush did not reach disk")
	}
}

func TestTieredDelete(t *testing.T) {
	tiered, err := NewTiered(Config{MemPages: 4, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_ = putBytes(tiered, page(1), []byte{1})
	_ = tiered.FlushAll()
	tiered.DeletePage(rec(tiered.Mem(), page(1)))
	if tiered.Contains(page(1)) {
		t.Fatal("deleted page still resident")
	}
	if _, ok := tiered.Get(page(1)); ok {
		t.Fatal("deleted page readable")
	}
}

func TestTieredDiskEvictionCallback(t *testing.T) {
	var lost []gaddr.Addr
	tiered, err := NewTiered(Config{
		MemPages:  1,
		DiskPages: 1,
		Dir:       t.TempDir(),
		OnDiskEvict: func(p gaddr.Addr, _ *frame.Frame) error {
			lost = append(lost, p)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = putBytes(tiered, page(1), []byte{1})
	_ = putBytes(tiered, page(2), []byte{2}) // 1 demoted to disk
	_ = putBytes(tiered, page(3), []byte{3}) // 2 demoted; disk full; 1 leaves node
	if len(lost) != 1 || lost[0] != page(1) {
		t.Fatalf("lost = %v", lost)
	}
}

func TestTieredLen(t *testing.T) {
	tiered, err := NewTiered(Config{MemPages: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_ = putBytes(tiered, page(1), []byte{1})
	_ = tiered.FlushAll() // resident in both tiers, counts once
	_ = putBytes(tiered, page(2), []byte{2})
	if got := tiered.Len(); got != 2 {
		t.Fatalf("Len = %d", got)
	}
}

// Property: a sequence of puts on a large-enough store is fully readable.
func TestQuickMemStoreFidelity(t *testing.T) {
	f := func(writes []struct {
		Page uint8
		Data []byte
	}) bool {
		s := NewMemStore(300, nil)
		expect := make(map[gaddr.Addr][]byte)
		for _, w := range writes {
			p := page(uint64(w.Page))
			if err := putBytes(s, p, w.Data); err != nil {
				return false
			}
			expect[p] = w.Data
		}
		for p, want := range expect {
			got, ok := getCopy(s, p)
			if !ok || string(got) != string(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: disk store round-trips arbitrary data.
func TestQuickDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(n uint16, data []byte) bool {
		p := page(uint64(n))
		if err := s.PutBytes(p, data); err != nil {
			return false
		}
		got, ok := s.Get(p)
		if !ok {
			return false
		}
		match := string(got.Bytes()) == string(data)
		got.Release()
		return match
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMemReclaimerRunsBeforeDemandEviction(t *testing.T) {
	calls := 0
	s := NewMemStore(2, nil)
	s.SetReclaimer(func() int { calls++; return 1 })
	// Filling to capacity triggers no pressure.
	if err := putBytes(s, page(1), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := putBytes(s, page(2), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("reclaimer ran %d times with no pressure", calls)
	}
	// Overflow: the reclaimer must run before the LRU demand eviction.
	if err := putBytes(s, page(3), []byte("c")); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("reclaimer ran %d times under pressure, want 1", calls)
	}
}
