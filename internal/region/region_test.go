package region

import (
	"testing"
	"testing/quick"

	"khazana/internal/enc"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/security"
)

func testDescriptor(start gaddr.Addr, size uint64) *Descriptor {
	return &Descriptor{
		Range:     gaddr.Range{Start: start, Size: size},
		Attrs:     DefaultAttrs(),
		Home:      []ktypes.NodeID{1},
		Epoch:     1,
		Allocated: true,
	}
}

func TestAttrsNormalize(t *testing.T) {
	var a Attrs
	n := a.Normalize()
	if n.PageSize != DefaultPageSize {
		t.Errorf("PageSize = %d", n.PageSize)
	}
	if n.Level != Strict || n.Protocol != CREW || n.MinReplicas != 1 {
		t.Errorf("Normalize = %+v", n)
	}
	// Level-derived protocol.
	a = Attrs{Level: Weak}
	if got := a.Normalize().Protocol; got != Eventual {
		t.Errorf("Weak default protocol = %v", got)
	}
	a = Attrs{Level: Relaxed}
	if got := a.Normalize().Protocol; got != Release {
		t.Errorf("Relaxed default protocol = %v", got)
	}
	// Explicit protocol wins over level.
	a = Attrs{Level: Weak, Protocol: CREW}
	if got := a.Normalize().Protocol; got != CREW {
		t.Errorf("explicit protocol overridden: %v", got)
	}
}

func TestAttrsValidate(t *testing.T) {
	good := DefaultAttrs()
	if err := good.Validate(); err != nil {
		t.Fatalf("default attrs invalid: %v", err)
	}
	bad := []Attrs{
		{PageSize: 100, Level: Strict, Protocol: CREW},             // too small
		{PageSize: 3000, Level: Strict, Protocol: CREW},            // not power of 2
		{PageSize: MaxPageSize * 2, Level: Strict, Protocol: CREW}, // too big
		{PageSize: 4096, Level: Strict, Protocol: 99},              // bad protocol
		{PageSize: 4096, Level: 99, Protocol: CREW},                // bad level
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d should be invalid: %+v", i, a)
		}
	}
	for _, ps := range []uint32{512, 4096, 16384, 65536} {
		a := Attrs{PageSize: ps, Level: Strict, Protocol: CREW}
		if err := a.Validate(); err != nil {
			t.Errorf("page size %d should validate: %v", ps, err)
		}
	}
}

func TestDescriptorBasics(t *testing.T) {
	d := testDescriptor(gaddr.FromUint64(0x10000), 0x4000)
	if d.ID() != gaddr.FromUint64(0x10000) {
		t.Errorf("ID = %v", d.ID())
	}
	home, err := d.PrimaryHome()
	if err != nil || home != 1 {
		t.Errorf("PrimaryHome = %v, %v", home, err)
	}
	if !d.HasHome(1) || d.HasHome(2) {
		t.Error("HasHome wrong")
	}
	empty := &Descriptor{}
	if _, err := empty.PrimaryHome(); err != ErrNoHome {
		t.Errorf("empty PrimaryHome err = %v", err)
	}
	if got := d.PageBase(gaddr.FromUint64(0x11234)); got != gaddr.FromUint64(0x11000) {
		t.Errorf("PageBase = %v", got)
	}
	pages := d.Pages(0, 0x4000)
	if len(pages) != 4 {
		t.Errorf("Pages = %d", len(pages))
	}
}

func TestDescriptorClone(t *testing.T) {
	d := testDescriptor(gaddr.FromUint64(0x1000), 0x1000)
	d.Attrs.ACL = security.Private("alice").Grant("bob", security.PermRead)
	c := d.Clone()
	c.Home[0] = 99
	c.Attrs.ACL.Entries[0].Allow = security.PermAll
	c.Epoch = 42
	if d.Home[0] != 1 {
		t.Error("Clone shares Home slice")
	}
	if d.Attrs.ACL.Entries[0].Allow != security.PermRead {
		t.Error("Clone shares ACL entries")
	}
	if d.Epoch != 1 {
		t.Error("Clone shares scalar state")
	}
}

func TestDescriptorEncodeDecode(t *testing.T) {
	d := testDescriptor(gaddr.New(3, 0x8000), 0x10000)
	d.Attrs.ACL = security.Private("alice").Grant("bob", security.PermRead|security.PermWrite)
	d.Attrs.MinReplicas = 3
	d.Attrs.Protocol = Release
	d.Attrs.Level = Relaxed
	d.Home = []ktypes.NodeID{2, 4}
	d.Epoch = 17

	e := enc.NewEncoder(0)
	d.EncodeTo(e)
	dec := enc.NewDecoder(e.Bytes())
	got := DecodeDescriptor(dec)
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
	if got.Range != d.Range || got.Epoch != d.Epoch || got.Allocated != d.Allocated {
		t.Fatalf("mismatch: %+v vs %+v", got, d)
	}
	if got.Attrs.PageSize != d.Attrs.PageSize || got.Attrs.Protocol != d.Attrs.Protocol ||
		got.Attrs.Level != d.Attrs.Level || got.Attrs.MinReplicas != d.Attrs.MinReplicas {
		t.Fatalf("attrs mismatch: %+v vs %+v", got.Attrs, d.Attrs)
	}
	if len(got.Home) != 2 || got.Home[0] != 2 || got.Home[1] != 4 {
		t.Fatalf("home mismatch: %v", got.Home)
	}
	if got.Attrs.ACL.Owner != "alice" || len(got.Attrs.ACL.Entries) != 1 {
		t.Fatalf("acl mismatch: %+v", got.Attrs.ACL)
	}
}

// newDirectory is a directory caching at most capacity descriptors.
func newDirectory(capacity int) *Directory {
	return &Directory{NewIndex[*Descriptor](capacity)}
}

func TestDirectoryLookup(t *testing.T) {
	dir := newDirectory(10)
	d1 := testDescriptor(gaddr.FromUint64(0x10000), 0x4000)
	d2 := testDescriptor(gaddr.FromUint64(0x20000), 0x1000)
	dir.Insert(d1)
	dir.Insert(d2)

	if got, ok := dir.Lookup(gaddr.FromUint64(0x11000)); !ok || got.ID() != d1.ID() {
		t.Fatalf("Lookup inside d1 = %v, %v", got, ok)
	}
	if got, ok := dir.Lookup(gaddr.FromUint64(0x20fff)); !ok || got.ID() != d2.ID() {
		t.Fatalf("Lookup end of d2 = %v, %v", got, ok)
	}
	if _, ok := dir.Lookup(gaddr.FromUint64(0x14000)); ok {
		t.Fatal("Lookup past d1 should miss")
	}
	if _, ok := dir.Lookup(gaddr.FromUint64(0x0)); ok {
		t.Fatal("Lookup before all should miss")
	}
}

// Insert clones on the way in and Lookup hands out that one published
// copy: the inserter may keep editing what it inserted, and every reader
// shares the stored descriptor without a clone.
func TestDirectoryPublishesOneImmutableCopy(t *testing.T) {
	dir := newDirectory(10)
	d := testDescriptor(gaddr.FromUint64(0x1000), 0x1000)
	dir.Insert(d)
	d.Home[0] = 99
	got, _ := dir.Lookup(gaddr.FromUint64(0x1000))
	if got.Home[0] != 1 {
		t.Fatal("Insert stored the caller's descriptor instead of a clone")
	}
	if again, _ := dir.Lookup(gaddr.FromUint64(0x1000)); again != got {
		t.Fatal("two lookups of one published descriptor returned different copies")
	}
}

func TestDirectoryEpochPreference(t *testing.T) {
	dir := newDirectory(10)
	d := testDescriptor(gaddr.FromUint64(0x1000), 0x1000)
	d.Epoch = 5
	d.Home = []ktypes.NodeID{3}
	dir.Insert(d)

	stale := testDescriptor(gaddr.FromUint64(0x1000), 0x1000)
	stale.Epoch = 2
	stale.Home = []ktypes.NodeID{9}
	dir.Insert(stale)

	got, _ := dir.Lookup(gaddr.FromUint64(0x1000))
	if got.Epoch != 5 || got.Home[0] != 3 {
		t.Fatalf("stale insert replaced fresher descriptor: %+v", got)
	}

	fresh := testDescriptor(gaddr.FromUint64(0x1000), 0x1000)
	fresh.Epoch = 9
	fresh.Home = []ktypes.NodeID{7}
	dir.Insert(fresh)
	got, _ = dir.Lookup(gaddr.FromUint64(0x1000))
	if got.Epoch != 9 || got.Home[0] != 7 {
		t.Fatalf("fresh insert ignored: %+v", got)
	}
}

func TestDirectoryEviction(t *testing.T) {
	dir := newDirectory(3)
	for i := uint64(0); i < 3; i++ {
		dir.Insert(testDescriptor(gaddr.FromUint64(i*0x10000), 0x1000))
	}
	// Touch region 0 so region at 0x10000 becomes LRU.
	if _, ok := dir.Lookup(gaddr.FromUint64(0)); !ok {
		t.Fatal("warm lookup failed")
	}
	if _, ok := dir.Lookup(gaddr.FromUint64(0x20000)); !ok {
		t.Fatal("warm lookup failed")
	}
	dir.Insert(testDescriptor(gaddr.FromUint64(0x30000), 0x1000))
	if dir.Len() != 3 {
		t.Fatalf("Len = %d, want 3", dir.Len())
	}
	if _, ok := dir.Lookup(gaddr.FromUint64(0x10000)); ok {
		t.Fatal("LRU entry should have been evicted")
	}
	if _, ok := dir.Lookup(gaddr.FromUint64(0x30000)); !ok {
		t.Fatal("new entry should be cached")
	}
}

func TestDirectoryRemove(t *testing.T) {
	dir := newDirectory(10)
	d := testDescriptor(gaddr.FromUint64(0x1000), 0x1000)
	dir.Insert(d)
	dir.Remove(d.ID())
	if _, ok := dir.Lookup(gaddr.FromUint64(0x1000)); ok {
		t.Fatal("removed entry still found")
	}
	// Removing an absent entry is a no-op.
	dir.Remove(gaddr.FromUint64(0x9999))
	if dir.Len() != 0 {
		t.Fatalf("Len = %d", dir.Len())
	}
}

func TestDirectoryConcurrent(t *testing.T) {
	dir := newDirectory(64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			dir.Insert(testDescriptor(gaddr.FromUint64(uint64(i%100)*0x10000), 0x1000))
		}
	}()
	for i := 0; i < 500; i++ {
		dir.Lookup(gaddr.FromUint64(uint64(i%100) * 0x10000))
	}
	<-done
}

// Property: descriptor encode/decode round-trips.
func TestQuickDescriptorRoundTrip(t *testing.T) {
	f := func(hi, lo, size uint64, ps uint8, homes []uint32, epoch uint64, alloc bool) bool {
		if size == 0 {
			size = 1
		}
		pageSize := uint32(512) << (ps % 8)
		d := &Descriptor{
			Range: gaddr.Range{Start: gaddr.New(hi, lo), Size: size},
			Attrs: Attrs{
				PageSize:    pageSize,
				Level:       Strict,
				Protocol:    CREW,
				MinReplicas: 1,
				ACL:         security.Open(),
			},
			Epoch:     epoch,
			Allocated: alloc,
		}
		for _, h := range homes {
			d.Home = append(d.Home, ktypes.NodeID(h))
		}
		e := enc.NewEncoder(0)
		d.EncodeTo(e)
		dec := enc.NewDecoder(e.Bytes())
		got := DecodeDescriptor(dec)
		if dec.Finish() != nil {
			return false
		}
		if got.Range != d.Range || got.Epoch != d.Epoch || got.Allocated != d.Allocated {
			return false
		}
		if len(got.Home) != len(d.Home) {
			return false
		}
		for i := range d.Home {
			if got.Home[i] != d.Home[i] {
				return false
			}
		}
		return got.Attrs.PageSize == d.Attrs.PageSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after inserting disjoint regions, lookup of any contained
// address finds the right region.
func TestQuickDirectoryContainment(t *testing.T) {
	f := func(seeds []uint16) bool {
		dir := newDirectory(len(seeds) + 1)
		var inserted []gaddr.Range
		for _, s := range seeds {
			start := gaddr.FromUint64(uint64(s) * 0x10000)
			r := gaddr.Range{Start: start, Size: 0x8000}
			overlap := false
			for _, prev := range inserted {
				if prev.Overlaps(r) {
					overlap = true
					break
				}
			}
			if overlap {
				continue
			}
			inserted = append(inserted, r)
			dir.Insert(testDescriptor(start, r.Size))
		}
		for _, r := range inserted {
			mid := r.Start.MustAdd(r.Size / 2)
			got, ok := dir.Lookup(mid)
			if !ok || got.Range.Start != r.Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
