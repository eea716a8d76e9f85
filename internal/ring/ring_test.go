package ring

import (
	"math/rand"
	"testing"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
)

func nodeSet(ids ...uint32) []ktypes.NodeID {
	out := make([]ktypes.NodeID, len(ids))
	for i, id := range ids {
		out[i] = ktypes.NodeID(id)
	}
	return out
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(nodeSet(3, 1, 2), Options{})
	b := Build(nodeSet(2, 3, 1, 1), Options{}) // order + dup must not matter
	if len(a.points) != len(b.points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.points), len(b.points))
	}
	for i := range a.points {
		if a.points[i] != b.points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, a.points[i], b.points[i])
		}
	}
	for probe := 0; probe < 200; probe++ {
		key := BucketOf(gaddr.FromUint64(rand.Uint64()))
		oa, ob := a.Owners(key), b.Owners(key)
		if len(oa) != len(ob) {
			t.Fatalf("owner counts differ for %v", key)
		}
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatalf("owners differ for %v: %v vs %v", key, oa, ob)
			}
		}
	}
}

func TestOwnersDistinctAndReplicated(t *testing.T) {
	r := Build(nodeSet(1, 2, 3, 4, 5), Options{ReplicationFactor: 3})
	for probe := 0; probe < 500; probe++ {
		key := BucketOf(gaddr.FromUint64(rand.Uint64()))
		owners := r.Owners(key)
		if len(owners) != 3 {
			t.Fatalf("want 3 owners, got %v", owners)
		}
		seen := map[ktypes.NodeID]bool{}
		for _, o := range owners {
			if o == ktypes.NilNode {
				t.Fatalf("nil owner in %v", owners)
			}
			if seen[o] {
				t.Fatalf("duplicate owner in %v", owners)
			}
			seen[o] = true
		}
		if r.Owner(key) != owners[0] {
			t.Fatalf("Owner != Owners[0]")
		}
		if !r.IsOwner(owners[1], key) || r.IsOwner(99, key) {
			t.Fatalf("IsOwner misreports for %v", owners)
		}
	}
}

func TestReplicationClampedToMembers(t *testing.T) {
	r := Build(nodeSet(7), Options{ReplicationFactor: 4})
	owners := r.Owners(gaddr.FromUint64(42))
	if len(owners) != 1 || owners[0] != 7 {
		t.Fatalf("single-node ring should own everything once: %v", owners)
	}
	if got := (&Ring{}).Owners(gaddr.FromUint64(1)); got != nil {
		t.Fatalf("empty ring owners = %v", got)
	}
	var nilRing *Ring
	if nilRing.Owner(gaddr.FromUint64(1)) != ktypes.NilNode {
		t.Fatalf("nil ring should own nothing")
	}
}

func TestSameMembers(t *testing.T) {
	r := Build(nodeSet(1, 2, 3), Options{})
	if !r.SameMembers(nodeSet(3, 2, 1, 2)) {
		t.Fatalf("order/dups should not matter")
	}
	if r.SameMembers(nodeSet(1, 2)) || r.SameMembers(nodeSet(1, 2, 4)) {
		t.Fatalf("different sets reported same")
	}
	var nilRing *Ring
	if nilRing.SameMembers(nil) {
		t.Fatalf("nil ring never matches")
	}
}

// TestRebalanceMinimality is the consistent-hashing contract: adding
// one node to an N-node ring must move only ~1/(N+1) of bucket
// ownership, not reshuffle everything (the property that makes
// membership churn cheap).
func TestRebalanceMinimality(t *testing.T) {
	old := Build(nodeSet(1, 2, 3, 4, 5, 6, 7, 8), Options{})
	grown := Build(nodeSet(1, 2, 3, 4, 5, 6, 7, 8, 9), Options{})
	const probes = 4000
	moved := 0
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < probes; i++ {
		key := BucketOf(gaddr.FromUint64(rng.Uint64()))
		if old.Owner(key) != grown.Owner(key) {
			moved++
		}
	}
	frac := float64(moved) / probes
	// Ideal is 1/9 ≈ 0.111; allow generous slack for vnode imbalance.
	if frac > 0.25 {
		t.Fatalf("adding 1 node to 8 moved %.1f%% of primaries (want ~11%%)", frac*100)
	}
	if moved == 0 {
		t.Fatalf("adding a node moved nothing — new node owns no buckets")
	}
}

func TestBalance(t *testing.T) {
	members := nodeSet(1, 2, 3, 4, 5, 6, 7, 8)
	r := Build(members, Options{})
	counts := map[ktypes.NodeID]int{}
	const probes = 8000
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < probes; i++ {
		counts[r.Owner(BucketOf(gaddr.FromUint64(rng.Uint64())))]++
	}
	ideal := probes / len(members)
	for _, m := range members {
		if counts[m] < ideal/3 || counts[m] > ideal*3 {
			t.Fatalf("node %v owns %d of %d probes (ideal %d): imbalance too large", m, counts[m], probes, ideal)
		}
	}
}

func TestBuckets(t *testing.T) {
	mk := func(lo uint64, size uint64) gaddr.Range {
		return gaddr.Range{Start: gaddr.FromUint64(lo), Size: size}
	}
	if got := Buckets(mk(0, 0)); got != nil {
		t.Fatalf("zero range buckets = %v", got)
	}
	one := Buckets(mk(4096, 8192))
	if len(one) != 1 || one[0] != gaddr.FromUint64(0) {
		t.Fatalf("small region buckets = %v", one)
	}
	// A region straddling a bucket boundary belongs to both buckets.
	two := Buckets(mk(BucketSize-4096, 8192))
	if len(two) != 2 || two[0] != gaddr.FromUint64(0) || two[1] != gaddr.FromUint64(BucketSize) {
		t.Fatalf("straddling buckets = %v", two)
	}
	// Exact bucket-sized region aligned at a boundary stays in one.
	exact := Buckets(mk(BucketSize, BucketSize))
	if len(exact) != 1 || exact[0] != gaddr.FromUint64(BucketSize) {
		t.Fatalf("aligned buckets = %v", exact)
	}
	three := Buckets(mk(0, 2*BucketSize+1))
	if len(three) != 3 {
		t.Fatalf("3-bucket span = %v", three)
	}
}

func TestRangeOwnersDedups(t *testing.T) {
	r := Build(nodeSet(1, 2, 3), Options{})
	rng := gaddr.Range{Start: gaddr.FromUint64(0), Size: 4 * BucketSize}
	owners := r.RangeOwners(rng)
	seen := map[ktypes.NodeID]bool{}
	for _, o := range owners {
		if seen[o] {
			t.Fatalf("duplicate owner %v in %v", o, owners)
		}
		seen[o] = true
	}
	if len(owners) == 0 || len(owners) > 3 {
		t.Fatalf("unexpected owner set %v", owners)
	}
}

func desc(lo, size, epoch uint64) *region.Descriptor {
	return &region.Descriptor{
		Range: gaddr.Range{Start: gaddr.FromUint64(lo), Size: size},
		Epoch: epoch,
	}
}

func TestTableEpochPreference(t *testing.T) {
	tbl := NewTable()
	if !tbl.Insert(desc(0, 4096, 5)) {
		t.Fatalf("first insert rejected")
	}
	if tbl.Insert(desc(0, 4096, 3)) {
		t.Fatalf("stale epoch accepted")
	}
	if d, ok := tbl.Lookup(gaddr.FromUint64(100)); !ok || d.Epoch != 5 {
		t.Fatalf("lookup after stale insert: %+v ok=%v", d, ok)
	}
	if !tbl.Insert(desc(0, 4096, 6)) {
		t.Fatalf("newer epoch rejected")
	}
	if d, _ := tbl.Lookup(gaddr.FromUint64(0)); d.Epoch != 6 {
		t.Fatalf("newer epoch not stored")
	}
	if tbl.Insert(nil) || tbl.Insert(&region.Descriptor{}) {
		t.Fatalf("degenerate inserts accepted")
	}
}

func TestTableContainmentAndRemove(t *testing.T) {
	tbl := NewTable()
	tbl.Insert(desc(0, 4096, 1))
	tbl.Insert(desc(8192, 4096, 1))
	if _, ok := tbl.Lookup(gaddr.FromUint64(4096)); ok {
		t.Fatalf("gap address resolved")
	}
	if d, ok := tbl.Lookup(gaddr.FromUint64(8192 + 4095)); !ok || d.Range.Start != gaddr.FromUint64(8192) {
		t.Fatalf("containment lookup failed: %+v %v", d, ok)
	}
	if tbl.descs.Len() != 2 {
		t.Fatalf("len mismatch")
	}
	tbl.Remove(gaddr.FromUint64(8192))
	tbl.Remove(gaddr.FromUint64(12345)) // absent: no-op
	if _, ok := tbl.Lookup(gaddr.FromUint64(8192)); ok || tbl.descs.Len() != 1 {
		t.Fatalf("remove did not take")
	}
	// Mutating a returned clone must not corrupt the table.
	d, _ := tbl.Lookup(gaddr.FromUint64(0))
	d.Epoch = 99
	if d2, _ := tbl.Lookup(gaddr.FromUint64(0)); d2.Epoch != 1 {
		t.Fatalf("clone mutation leaked into table")
	}
}

// TestTableDestroyRefusesLateInsert: a Put that was in flight when its
// region was destroyed must not re-teach the region, a plain Remove
// (rebalance) must not block re-learning, and the destroyed set stays
// bounded.
func TestTableDestroyRefusesLateInsert(t *testing.T) {
	tbl := NewTable()
	tbl.Insert(desc(0, 4096, 2))
	tbl.Destroy(gaddr.FromUint64(0))
	if _, ok := tbl.Lookup(gaddr.FromUint64(0)); ok || !tbl.Destroyed(gaddr.FromUint64(0)) {
		t.Fatalf("destroy did not take")
	}
	if tbl.Insert(desc(0, 4096, 9)) {
		t.Fatalf("destroyed region re-learned from a late announce")
	}
	tbl.Insert(desc(8192, 4096, 1))
	tbl.Remove(gaddr.FromUint64(8192))
	if tbl.Destroyed(gaddr.FromUint64(8192)) || !tbl.Insert(desc(8192, 4096, 1)) {
		t.Fatalf("a rebalance remove must not block re-learning")
	}
	for i := uint64(1); i <= 2*maxGone; i++ {
		tbl.Destroy(gaddr.FromUint64(1<<40 + i*4096))
		tbl.Destroy(gaddr.FromUint64(1<<40 + i*4096)) // idempotent
	}
	if len(tbl.gone) != maxGone || len(tbl.goneFIFO) != maxGone {
		t.Fatalf("destroyed set grew to %d/%d, bound %d", len(tbl.gone), len(tbl.goneFIFO), maxGone)
	}
	if !tbl.Destroyed(gaddr.FromUint64(1<<40+2*maxGone*4096)) || tbl.Destroyed(gaddr.FromUint64(0)) {
		t.Fatalf("FIFO should keep the newest and forget the oldest")
	}
}
