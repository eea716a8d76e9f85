package region

import (
	"slices"
	"sort"
	"sync"

	"khazana/internal/gaddr"
)

// Index maps region starts to values and answers the question every
// descriptor table on the lookup path asks (§3.2): which entry has the
// greatest start <= addr? The region directory, a ring owner's table, the
// home's authoritative descriptors and the page directory's per-region
// tables are all Index instances; each keeps only its own insert rule on
// top.
//
// Starts are kept sorted, so Get and Floor are binary searches. A bounded
// index — the region directory is the only one — also keeps its entries
// on a recency ring: Get, Floor and Update make an entry the most recently
// used, and a new start inserted into a full index evicts the least
// recently used entry, found in O(1). Removing it and inserting the new
// start shift the sorted slice in O(n). A removed or evicted entry is
// reused by the next insert, so an index whose size holds steady allocates
// no entry.
//
// The index owns its mutex. Every callback (Floor's match, Update's fn,
// Range's fn) runs under it, so a callback takes no lock and does not call
// back into the index.
type Index[V any] struct {
	mu       sync.Mutex
	sorted   []*indexEntry[V] // by start
	capacity int              // 0: unbounded
	// recent closes a bounded index's recency ring: recent.next is the
	// most recently used entry, recent.prev the next eviction victim.
	recent indexEntry[V]
	// free chains removed entries through next, for the next insert.
	free *indexEntry[V]
}

type indexEntry[V any] struct {
	start      gaddr.Addr
	val        V
	prev, next *indexEntry[V]
}

// NewIndex returns an empty index holding at most capacity entries; 0
// means unbounded.
func NewIndex[V any](capacity int) *Index[V] {
	x := &Index[V]{capacity: capacity}
	x.recent.prev, x.recent.next = &x.recent, &x.recent
	return x
}

// Get returns the value stored at exactly start.
func (x *Index[V]) Get(start gaddr.Addr) (V, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if i := x.search(start); i > 0 && x.sorted[i-1].start == start {
		e := x.sorted[i-1]
		x.touch(e)
		return e.val, true
	}
	var zero V
	return zero, false
}

// Floor returns the value with the greatest start <= a, provided match
// accepts it (a nil match accepts any value).
func (x *Index[V]) Floor(a gaddr.Addr, match func(V) bool) (V, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if i := x.search(a); i > 0 {
		e := x.sorted[i-1]
		if match == nil || match(e.val) {
			x.touch(e)
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

// Put stores v at start.
func (x *Index[V]) Put(start gaddr.Addr, v V) {
	x.Update(start, func(V, bool) (V, bool) { return v, true })
}

// Update stores fn's value at start if fn keeps it, and deletes the entry
// otherwise. ok reports whether start was present and old is its value.
// When start is absent and the index is full, old is instead the value of
// the entry the insert will evict, whose storage fn may reuse if it keeps
// the result.
func (x *Index[V]) Update(start gaddr.Addr, fn func(old V, ok bool) (V, bool)) {
	x.mu.Lock()
	defer x.mu.Unlock()
	i := x.search(start)
	if i > 0 && x.sorted[i-1].start == start {
		e := x.sorted[i-1]
		v, keep := fn(e.val, true)
		if !keep {
			x.removeAt(i - 1)
			return
		}
		e.val = v
		x.touch(e)
		return
	}
	var victim *indexEntry[V]
	var old V
	if x.capacity > 0 && len(x.sorted) >= x.capacity {
		victim = x.recent.prev
		old = victim.val
	}
	v, keep := fn(old, false)
	if !keep {
		return
	}
	if victim != nil {
		j := x.search(victim.start) - 1
		x.removeAt(j)
		if j < i {
			i--
		}
	}
	e := x.free
	if e != nil {
		x.free, e.next = e.next, nil
	} else {
		e = &indexEntry[V]{}
	}
	e.start, e.val = start, v
	x.sorted = slices.Insert(x.sorted, i, e)
	x.touch(e)
}

// Delete drops the entry at start, if any.
func (x *Index[V]) Delete(start gaddr.Addr) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if i := x.search(start); i > 0 && x.sorted[i-1].start == start {
		x.removeAt(i - 1)
	}
}

// Len returns the number of entries.
func (x *Index[V]) Len() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.sorted)
}

// Range calls fn for every entry in start order.
func (x *Index[V]) Range(fn func(start gaddr.Addr, v V)) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, e := range x.sorted {
		fn(e.start, e.val)
	}
}

// search returns the position of the first entry whose start is > a.
func (x *Index[V]) search(a gaddr.Addr) int {
	return sort.Search(len(x.sorted), func(i int) bool { return a.Less(x.sorted[i].start) })
}

// touch makes e the most recently used entry of a bounded index.
func (x *Index[V]) touch(e *indexEntry[V]) {
	if x.capacity == 0 {
		return
	}
	if e.prev != nil {
		e.prev.next, e.next.prev = e.next, e.prev
	}
	e.prev, e.next = &x.recent, x.recent.next
	e.next.prev = e
	x.recent.next = e
}

// removeAt takes the entry at position i out of the index and onto the
// free list.
func (x *Index[V]) removeAt(i int) {
	e := x.sorted[i]
	if e.prev != nil {
		e.prev.next, e.next.prev = e.next, e.prev
		e.prev = nil
	}
	var zero V
	e.val, e.next, x.free = zero, x.free, e
	x.sorted = slices.Delete(x.sorted, i, i+1)
}
