package region

import (
	"sort"
	"sync"

	"khazana/internal/gaddr"
)

// Directory is the region directory: a per-node cache of recently used
// region descriptors (paper §3.2). It is not kept globally consistent and
// may contain stale data; a stale home pointer simply results in a message
// to a node that is no longer home, after which the caller falls back to
// the cluster manager and then the address map tree.
type Directory struct {
	mu      sync.Mutex
	byStart map[gaddr.Addr]*dirEntry
	starts  []gaddr.Addr // sorted; parallel index for containment lookup
	cap     int
	clock   uint64 // logical LRU clock

	hits   uint64
	misses uint64
}

type dirEntry struct {
	desc *Descriptor
	used uint64
}

// DefaultDirectoryCapacity is the default number of cached descriptors.
const DefaultDirectoryCapacity = 1024

// NewDirectory creates a directory caching at most capacity descriptors.
// capacity <= 0 selects the default.
func NewDirectory(capacity int) *Directory {
	if capacity <= 0 {
		capacity = DefaultDirectoryCapacity
	}
	return &Directory{
		byStart: make(map[gaddr.Addr]*dirEntry, capacity),
		cap:     capacity,
	}
}

// Lookup returns the cached descriptor for the region containing a, if
// any. The result is the published copy every caller shares: read-only
// (see Descriptor).
func (dir *Directory) Lookup(a gaddr.Addr) (*Descriptor, bool) {
	dir.mu.Lock()
	defer dir.mu.Unlock()
	// Find the greatest start <= a.
	i := sort.Search(len(dir.starts), func(i int) bool {
		return a.Less(dir.starts[i])
	})
	if i == 0 {
		dir.misses++
		return nil, false
	}
	start := dir.starts[i-1]
	ent := dir.byStart[start]
	if ent == nil || !ent.desc.Range.Contains(a) {
		dir.misses++
		return nil, false
	}
	dir.clock++
	ent.used = dir.clock
	dir.hits++
	return ent.desc, true
}

// Insert caches a descriptor, replacing any entry with the same start
// unless the cached copy has a newer epoch. The descriptor is cloned.
func (dir *Directory) Insert(d *Descriptor) {
	if d == nil || d.Range.Size == 0 {
		return
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	dir.clock++
	if ent, ok := dir.byStart[d.Range.Start]; ok {
		if ent.desc.Epoch <= d.Epoch {
			ent.desc = d.Clone()
		}
		ent.used = dir.clock
		return
	}
	if len(dir.byStart) >= dir.cap {
		dir.evictLocked()
	}
	dir.byStart[d.Range.Start] = &dirEntry{desc: d.Clone(), used: dir.clock}
	i := sort.Search(len(dir.starts), func(i int) bool {
		return d.Range.Start.Less(dir.starts[i])
	})
	dir.starts = append(dir.starts, gaddr.Addr{})
	copy(dir.starts[i+1:], dir.starts[i:])
	dir.starts[i] = d.Range.Start
}

// evictLocked removes the least recently used entry.
func (dir *Directory) evictLocked() {
	var victim gaddr.Addr
	var oldest uint64
	first := true
	for start, ent := range dir.byStart {
		if first || ent.used < oldest {
			victim, oldest, first = start, ent.used, false
		}
	}
	if !first {
		dir.removeLocked(victim)
	}
}

// Remove drops the descriptor starting at start, if cached. It is used
// when a cached home pointer proves stale (paper §3.2) or a region is
// unreserved.
func (dir *Directory) Remove(start gaddr.Addr) {
	dir.mu.Lock()
	defer dir.mu.Unlock()
	dir.removeLocked(start)
}

func (dir *Directory) removeLocked(start gaddr.Addr) {
	if _, ok := dir.byStart[start]; !ok {
		return
	}
	delete(dir.byStart, start)
	i := sort.Search(len(dir.starts), func(i int) bool {
		return !dir.starts[i].Less(start)
	})
	if i < len(dir.starts) && dir.starts[i] == start {
		dir.starts = append(dir.starts[:i], dir.starts[i+1:]...)
	}
}

// Len returns the number of cached descriptors.
func (dir *Directory) Len() int {
	dir.mu.Lock()
	defer dir.mu.Unlock()
	return len(dir.byStart)
}

// Stats returns cumulative hit and miss counts.
func (dir *Directory) Stats() (hits, misses uint64) {
	dir.mu.Lock()
	defer dir.mu.Unlock()
	return dir.hits, dir.misses
}
