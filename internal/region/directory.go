package region

import "khazana/internal/gaddr"

// Directory is the region directory: a per-node cache of recently used
// region descriptors (paper §3.2). It is not kept globally consistent and
// may contain stale data; a stale home pointer simply results in a message
// to a node that is no longer home, after which the caller drops the entry
// and resolves the region again: through the ring's bucket owners, then
// the address map tree.
type Directory struct{ idx *Index[*Descriptor] }

// DirectoryCapacity is the number of descriptors a directory caches.
const DirectoryCapacity = 1024

// NewDirectory creates an empty directory.
func NewDirectory() *Directory {
	return &Directory{NewIndex[*Descriptor](DirectoryCapacity)}
}

// Lookup returns the cached descriptor for the region containing a, if
// any. The result is the published copy every caller shares: read-only
// (see Descriptor).
func (dir *Directory) Lookup(a gaddr.Addr) (*Descriptor, bool) {
	return dir.idx.Floor(a, func(d *Descriptor) bool { return d.Range.Contains(a) })
}

// Insert caches a descriptor, replacing any entry with the same start
// unless the cached copy has a newer epoch. The descriptor is cloned.
func (dir *Directory) Insert(d *Descriptor) {
	if d == nil || d.Range.Size == 0 {
		return
	}
	dir.idx.Update(d.Range.Start, func(have *Descriptor, ok bool) (*Descriptor, bool) {
		if ok && have.Epoch > d.Epoch {
			return have, true
		}
		return d.Clone(), true
	})
}

// Remove drops the descriptor starting at start, if cached. It is used
// when a cached home pointer proves stale (paper §3.2) or a region is
// unreserved.
func (dir *Directory) Remove(start gaddr.Addr) { dir.idx.Delete(start) }

// Len returns the number of cached descriptors.
func (dir *Directory) Len() int { return dir.idx.Len() }
