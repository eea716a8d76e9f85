package region

import (
	"math/rand"
	"slices"
	"testing"

	"khazana/internal/gaddr"
)

// indexModel is the reference index: a map of values, sorted on demand,
// plus an explicit recency list, least recently used first.
type indexModel struct {
	capacity int
	vals     map[gaddr.Addr]int
	recent   []gaddr.Addr
}

func (r *indexModel) touch(start gaddr.Addr) {
	r.drop(start)
	r.recent = append(r.recent, start)
}

func (r *indexModel) drop(start gaddr.Addr) {
	r.recent = slices.DeleteFunc(r.recent, func(a gaddr.Addr) bool { return a == start })
}

func (r *indexModel) del(start gaddr.Addr) {
	delete(r.vals, start)
	r.drop(start)
}

// victim is the entry an insert of a new start evicts, if any.
func (r *indexModel) victim() (gaddr.Addr, bool) {
	if r.capacity > 0 && len(r.vals) >= r.capacity {
		return r.recent[0], true
	}
	return gaddr.Addr{}, false
}

func (r *indexModel) put(start gaddr.Addr, v int) {
	if _, ok := r.vals[start]; !ok {
		if victim, full := r.victim(); full {
			r.del(victim)
		}
	}
	r.vals[start] = v
	r.touch(start)
}

func (r *indexModel) floor(a gaddr.Addr) (gaddr.Addr, bool) {
	best, have := gaddr.Addr{}, false
	for start := range r.vals {
		if !a.Less(start) && (!have || best.Less(start)) {
			best, have = start, true
		}
	}
	return best, have
}

func (r *indexModel) sorted() []gaddr.Addr {
	out := make([]gaddr.Addr, 0, len(r.vals))
	for start := range r.vals {
		out = append(out, start)
	}
	slices.SortFunc(out, gaddr.Addr.Cmp)
	return out
}

// checkIndex verifies x against the model: the same entries in start
// order, and a recency ring that visits exactly the model's recency list
// whichever way it is walked, every link consistent. An unbounded index
// keeps no ring.
func checkIndex(t *testing.T, step int, x *Index[int], ref *indexModel) {
	t.Helper()
	var starts []gaddr.Addr
	x.Range(func(start gaddr.Addr, v int) {
		if v != ref.vals[start] {
			t.Fatalf("step %d: %v = %d, model %d", step, start, v, ref.vals[start])
		}
		starts = append(starts, start)
	})
	if want := ref.sorted(); !slices.Equal(starts, want) || x.Len() != len(want) {
		t.Fatalf("step %d: starts %v (len %d), model %v", step, starts, x.Len(), want)
	}
	want := ref.recent
	if ref.capacity == 0 {
		want = nil
	}
	var forward, backward []gaddr.Addr
	for e := x.recent.next; e != &x.recent; e = e.next {
		if e.next.prev != e || len(forward) > len(starts) {
			t.Fatalf("step %d: ring broken walking forward", step)
		}
		forward = append(forward, e.start)
	}
	for e := x.recent.prev; e != &x.recent; e = e.prev {
		if e.prev.next != e || len(backward) > len(starts) {
			t.Fatalf("step %d: ring broken walking backward", step)
		}
		backward = append(backward, e.start)
	}
	slices.Reverse(forward)
	if !slices.Equal(forward, want) || !slices.Equal(backward, want) {
		t.Fatalf("step %d: ring order %v (backward %v), want %v", step, forward, backward, want)
	}
}

// TestIndexModel drives Index with seeded random Put, Update, Delete,
// Floor and Get calls at capacities 1 to 8 and unbounded, and checks it
// against the reference after every step: the same entries, the same
// victims (and the victim's value handed to Update for reuse), the same
// answers, and a recency ring that holds exactly the cached entries.
func TestIndexModel(t *testing.T) {
	for capacity := 0; capacity <= 8; capacity++ {
		rng := rand.New(rand.NewSource(int64(capacity) + 1))
		x := NewIndex[int](capacity)
		ref := &indexModel{capacity: capacity, vals: make(map[gaddr.Addr]int)}
		keys := 3*capacity + 4
		key := func() gaddr.Addr { return gaddr.FromUint64(uint64(1+rng.Intn(keys)) * 0x1000) }
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(12); {
			case op < 3:
				s, v := key(), rng.Int()
				x.Put(s, v)
				ref.put(s, v)
			case op < 5:
				s, v, keep := key(), rng.Int(), rng.Intn(3) > 0
				refOld, refOK := ref.vals[s]
				if victim, full := ref.victim(); !refOK && full {
					refOld = ref.vals[victim]
				}
				x.Update(s, func(old int, ok bool) (int, bool) {
					if old != refOld || ok != refOK {
						t.Fatalf("step %d: Update(%v) saw (%d, %v), model (%d, %v)", step, s, old, ok, refOld, refOK)
					}
					return v, keep
				})
				switch {
				case keep:
					ref.put(s, v)
				case refOK:
					ref.del(s)
				}
			case op < 6:
				s := key()
				x.Delete(s)
				ref.del(s)
			case op < 9:
				// Starts, addresses inside an entry's span, and addresses
				// below every start; odd values are refused by the match.
				a := gaddr.FromUint64(uint64(rng.Intn(keys+1))*0x1000 + uint64(rng.Intn(2))*0x800)
				match := func(v int) bool { return v%2 == 0 }
				if rng.Intn(2) == 0 {
					match = nil
				}
				got, ok := x.Floor(a, match)
				want, have := ref.floor(a)
				if have && match != nil && !match(ref.vals[want]) {
					have = false
				}
				if ok != have || (ok && got != ref.vals[want]) {
					t.Fatalf("step %d: Floor(%v) = %d, %v; model %v at %v", step, a, got, ok, have, want)
				}
				if have {
					ref.touch(want)
				}
			default:
				s := key()
				got, ok := x.Get(s)
				want, have := ref.vals[s]
				if ok != have || got != want {
					t.Fatalf("step %d: Get(%v) = %d, %v; model %d, %v", step, s, got, ok, want, have)
				}
				if have {
					ref.touch(s)
				}
			}
			checkIndex(t, step, x, ref)
		}
	}
}

var cloneSink *Descriptor

// TestDirectoryInsertAllocGate: a new start inserted into a full directory
// reuses the evicted entry, so it allocates the descriptor clone and
// nothing else.
func TestDirectoryInsertAllocGate(t *testing.T) {
	dir := NewDirectory()
	d := testDescriptor(gaddr.Addr{}, 0x1000)
	next := uint64(1)
	insert := func() {
		d.Range.Start = gaddr.FromUint64(next * 0x10000)
		next++
		dir.Insert(d)
	}
	for dir.Len() < DirectoryCapacity {
		insert()
	}
	clone := testing.AllocsPerRun(1000, func() { cloneSink = d.Clone() })
	full := testing.AllocsPerRun(1000, insert)
	if dir.Len() != DirectoryCapacity {
		t.Fatalf("%d descriptors cached, want %d", dir.Len(), DirectoryCapacity)
	}
	if full != clone {
		t.Fatalf("Insert into a full directory allocates %.2f objects, the descriptor clone alone %.2f", full, clone)
	}
}
