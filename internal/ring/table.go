package ring

import (
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
	descs *region.Index[*region.Descriptor]

	// mu orders inserts and destroys with the tombstones. gone holds the
	// starts of the most recently destroyed regions. Announces are
	// asynchronous and unordered, so a Put issued before a region's
	// destroy can arrive after it; Insert refuses those. Region starts are
	// never reused (the address map's cursor only advances), so refusing
	// one is always right; goneFIFO forgets the oldest beyond maxGone to
	// bound the memory.
	mu       sync.Mutex
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
		descs: region.NewIndex[*region.Descriptor](0),
		gone:  make(map[gaddr.Addr]struct{}),
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
	changed := false
	t.descs.Update(d.Range.Start, func(have *region.Descriptor, ok bool) (*region.Descriptor, bool) {
		if ok && d.Epoch < have.Epoch {
			return have, true
		}
		changed = true
		return d.Clone(), true
	})
	return changed
}

// Remove drops the descriptor starting at start, if present. The region
// still exists (this owner merely lost its partition), so a later Insert
// is accepted.
func (t *Table) Remove(start gaddr.Addr) { t.descs.Delete(start) }

// Destroy drops the descriptor starting at start and remembers the start
// as destroyed, so a stale announce cannot re-teach it.
func (t *Table) Destroy(start gaddr.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.descs.Delete(start)
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

// Lookup returns a clone of the descriptor whose range contains a.
func (t *Table) Lookup(a gaddr.Addr) (*region.Descriptor, bool) {
	d, ok := t.descs.Floor(a, func(d *region.Descriptor) bool { return d.Range.Contains(a) })
	if !ok {
		return nil, false
	}
	return d.Clone(), true
}
