package ring

import (
	"sort"
	"sync"

	"khazana/internal/gaddr"
	"khazana/internal/region"
)

// Table is the authoritative descriptor table a ring owner keeps for
// the buckets it owns. Unlike the region directory (an LRU cache that
// may silently drop or stale out), the table holds every descriptor
// announced to this node until it is withdrawn, and prefers the highest
// epoch on conflicting announces so a late replay of an old home set
// cannot clobber a newer one.
type Table struct {
	mu      sync.Mutex
	byStart map[gaddr.Addr]*region.Descriptor
	starts  []gaddr.Addr // sorted; containment index

	// gone holds the starts of the most recently destroyed regions.
	// Announces are asynchronous and unordered, so a Put issued before a
	// region's destroy can arrive after it; Insert refuses those. Region
	// starts are never reused (the address map's cursor only advances),
	// so refusing one is always right; goneFIFO forgets the oldest beyond
	// maxGone to bound the memory.
	gone     map[gaddr.Addr]struct{}
	goneFIFO []gaddr.Addr
	goneNext int
}

// maxGone is how many destroyed starts a table remembers: far more
// destroys than can be in flight inside an announce's 2 s timeout.
const maxGone = 4096

// NewTable creates an empty authoritative table.
func NewTable() *Table {
	return &Table{
		byStart: make(map[gaddr.Addr]*region.Descriptor),
		gone:    make(map[gaddr.Addr]struct{}),
	}
}

// Insert stores a descriptor (cloned), replacing an existing entry with
// the same start only if the incoming epoch is >= the stored one, and
// refusing a region this table has seen destroyed. Returns whether the
// table changed.
func (t *Table) Insert(d *region.Descriptor) bool {
	if d == nil || d.Range.Size == 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dead := t.gone[d.Range.Start]; dead {
		return false
	}
	if have, ok := t.byStart[d.Range.Start]; ok {
		if d.Epoch < have.Epoch {
			return false
		}
		t.byStart[d.Range.Start] = d.Clone()
		return true
	}
	t.byStart[d.Range.Start] = d.Clone()
	i := sort.Search(len(t.starts), func(i int) bool {
		return d.Range.Start.Less(t.starts[i])
	})
	t.starts = append(t.starts, gaddr.Addr{})
	copy(t.starts[i+1:], t.starts[i:])
	t.starts[i] = d.Range.Start
	return true
}

// Remove drops the descriptor starting at start, if present. The region
// still exists (this owner merely lost its partition), so a later Insert
// is accepted.
func (t *Table) Remove(start gaddr.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.removeLocked(start)
}

// Destroy drops the descriptor starting at start and remembers the start
// as destroyed, so a stale announce cannot re-teach it.
func (t *Table) Destroy(start gaddr.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.removeLocked(start)
	if _, dead := t.gone[start]; dead {
		return
	}
	if len(t.goneFIFO) < maxGone {
		t.goneFIFO = append(t.goneFIFO, start)
	} else {
		delete(t.gone, t.goneFIFO[t.goneNext])
		t.goneFIFO[t.goneNext] = start
		t.goneNext = (t.goneNext + 1) % maxGone
	}
	t.gone[start] = struct{}{}
}

// Destroyed reports whether the table remembers start as destroyed.
func (t *Table) Destroyed(start gaddr.Addr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, dead := t.gone[start]
	return dead
}

func (t *Table) removeLocked(start gaddr.Addr) {
	if _, ok := t.byStart[start]; !ok {
		return
	}
	delete(t.byStart, start)
	i := sort.Search(len(t.starts), func(i int) bool {
		return !t.starts[i].Less(start)
	})
	if i < len(t.starts) && t.starts[i] == start {
		t.starts = append(t.starts[:i], t.starts[i+1:]...)
	}
}

// Lookup returns a clone of the descriptor whose range contains a.
func (t *Table) Lookup(a gaddr.Addr) (*region.Descriptor, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := sort.Search(len(t.starts), func(i int) bool {
		return a.Less(t.starts[i])
	})
	if i == 0 {
		return nil, false
	}
	d := t.byStart[t.starts[i-1]]
	if d == nil || !d.Range.Contains(a) {
		return nil, false
	}
	return d.Clone(), true
}

// Starts returns the sorted region starts currently held.
func (t *Table) Starts() []gaddr.Addr {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]gaddr.Addr, len(t.starts))
	copy(out, t.starts)
	return out
}

// Len returns the number of descriptors held.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byStart)
}
