// Package pagedir implements the per-node page directory (paper §3.4):
// information about individual pages of global regions, indexed by global
// address, including the list of nodes sharing each page. The directory
// maintains persistent information about pages homed locally and caches
// information about pages with remote homes. Like the region directory, it
// is node-specific and not stored in global shared memory.
package pagedir

import (
	"fmt"
	"io"
	"slices"
	"sync/atomic"

	"khazana/internal/enc"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
)

// State is the local validity state of a page copy.
type State uint8

const (
	// Invalid means no valid local copy.
	Invalid State = iota
	// Shared means a valid read-only copy.
	Shared
	// Owned means this node owns the page exclusively (write access).
	Owned
)

// String renders the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "invalid"
	case Shared:
		return "shared"
	case Owned:
		return "owned"
	default:
		return "bad-state"
	}
}

// Entry holds a page's location and consistency information (Figure 2,
// step 4: "The page directory entry holds location and consistency
// information for that page").
type Entry struct {
	Page gaddr.Addr
	// State is this node's local copy state.
	State State
	// Dirty marks a locally modified copy not yet propagated.
	Dirty bool
	// HomedLocal marks pages whose home is this node; their directory
	// information is persistent (§3.4).
	HomedLocal bool
	// Owner is the node believed to own the page (meaningful on the
	// page's home node; elsewhere a hint).
	Owner ktypes.NodeID
	// Copyset lists nodes holding copies (maintained by the home node).
	// It is immutable once stored: Lookup hands the stored slice to every
	// reader, so setCopyset replaces it and never edits it in place.
	Copyset []ktypes.NodeID
	// spare is the copyset setCopyset last replaced, as immutable. The
	// one-byte fields above sit together so that with it the entry still
	// packs into 80 bytes.
	spare []ktypes.NodeID
	// Version is the page's one clock: it counts committed writes, and
	// under the eventual protocol (Version, Owner) orders concurrent
	// writes, Owner being the winning write's writer.
	Version uint64
}

// InCopyset reports whether n is in the entry's copyset.
func (e *Entry) InCopyset(n ktypes.NodeID) bool {
	for _, c := range e.Copyset {
		if c == n {
			return true
		}
	}
	return false
}

// AddSharer inserts n into the copyset if absent.
func (e *Entry) AddSharer(n ktypes.NodeID) {
	if !e.InCopyset(n) {
		e.setCopyset(func(ktypes.NodeID) bool { return false }, n)
	}
}

// RemoveSharer removes n from the copyset.
func (e *Entry) RemoveSharer(n ktypes.NodeID) {
	e.RemoveSharers(func(c ktypes.NodeID) bool { return c == n })
}

// RemoveSharers removes every member drop reports from the copyset.
func (e *Entry) RemoveSharers(drop func(ktypes.NodeID) bool) {
	if slices.ContainsFunc(e.Copyset, drop) {
		e.setCopyset(drop)
	}
}

// setCopyset is the only way a copyset changes: to its members drop
// rejects plus add (non-members), all distinct. When spare holds exactly
// that set — a write grant revoking the readers the last read grant added —
// the two swap; otherwise a new slice is built and the old one is spare.
func (e *Entry) setCopyset(drop func(ktypes.NodeID) bool, add ...ktypes.NodeID) {
	size, match := len(add), true
	for _, c := range e.Copyset {
		if !drop(c) {
			size++
			match = match && slices.Contains(e.spare, c)
		}
	}
	for _, c := range add {
		match = match && slices.Contains(e.spare, c)
	}
	if !match || len(e.spare) != size {
		next := append(make([]ktypes.NodeID, 0, len(e.Copyset)+len(add)), e.Copyset...)
		e.spare = append(slices.DeleteFunc(next, drop), add...)
	}
	e.Copyset, e.spare = e.spare, e.Copyset
}

// Dir is a node's page directory: the page tables of the regions this
// node has touched, indexed by region start, so a batch finds its table
// once and reaches every page by arithmetic.
type Dir struct {
	idx *region.Index[*Table]
	// last is the table Table returned most recently: a node's operations
	// mostly reach one region several times in a row, and a hit here
	// skips the index's mutex and search.
	last atomic.Pointer[Table]
	// epoch is the publish clock of the version chains in the records.
	epoch atomic.Uint64
}

// Epoch returns the publish clock's current epoch: a snapshot cut there
// sees every version published so far.
func (d *Dir) Epoch() uint64 { return d.epoch.Load() }

// NextEpoch advances the publish clock and returns the epoch a newly
// committed version enters its chain at. One clock for the directory
// keeps every chain's epochs increasing whichever protocol publishes.
func (d *Dir) NextEpoch() uint64 { return d.epoch.Add(1) }

// New creates an empty page directory.
func New() *Dir { return &Dir{idx: region.NewIndex[*Table](0)} }

// Table returns the page table of the region [start, start+size) with
// the given page size, making it on the region's first touch. A table
// left at start by a region of another size is dropped and replaced.
func (d *Dir) Table(start gaddr.Addr, size, pageSize uint64) *Table {
	if t := d.last.Load(); t != nil && t.start == start && t.size == size && !t.dropped.Load() {
		return t
	}
	var t *Table
	d.idx.Update(start, func(old *Table, ok bool) (*Table, bool) {
		if t = old; !ok || old.size != size {
			if ok {
				old.dropped.Store(true)
			}
			t = newTable(start, size, pageSize)
		}
		return t, true
	})
	d.last.Store(t)
	return t
}

// At returns the table starting at start, or nil; it never makes one.
// Release paths use it, so nothing brings back a dropped region's table.
func (d *Dir) At(start gaddr.Addr) *Table {
	if t := d.last.Load(); t != nil && t.start == start && !t.dropped.Load() {
		return t
	}
	t, _ := d.idx.Get(start)
	return t
}

// Find returns the table covering page, or nil.
func (d *Dir) Find(page gaddr.Addr) *Table {
	t, _ := d.idx.Floor(page, func(t *Table) bool { return t.covers(page) })
	return t
}

// Drop removes the table starting at start and returns it, or nil.
func (d *Dir) Drop(start gaddr.Addr) *Table {
	var t *Table
	d.idx.Update(start, func(old *Table, _ bool) (*Table, bool) {
		t = old
		return nil, false
	})
	if t != nil {
		t.dropped.Store(true)
	}
	return t
}

// Tables returns every table, by start.
func (d *Dir) Tables() []*Table {
	var out []*Table
	d.idx.Range(func(_ gaddr.Addr, t *Table) { out = append(out, t) })
	return out
}

// entries calls fn on every listed entry, under its table's mutex.
func (d *Dir) entries(fn func(*Entry)) {
	for _, t := range d.Tables() {
		t.Each(func(p *Page) {
			if p.lock.listed {
				fn(&p.Entry)
			}
		})
	}
}

// Len returns the number of entries.
func (d *Dir) Len() int {
	n := 0
	d.entries(func(*Entry) { n++ })
	return n
}

// Pages returns all tracked page addresses.
func (d *Dir) Pages() []gaddr.Addr {
	var out []gaddr.Addr
	d.entries(func(e *Entry) { out = append(out, e.Page) })
	return out
}

// HomedPages returns the pages homed locally.
func (d *Dir) HomedPages() []gaddr.Addr {
	var out []gaddr.Addr
	d.entries(func(e *Entry) {
		if e.HomedLocal {
			out = append(out, e.Page)
		}
	})
	return out
}

// persistMagic guards the persistence format; it changes with the entry
// layout, so a file in an older layout is refused, not misread.
const persistMagic = 0x4b50_4432 // "KPD2"

// SaveTo writes the locally homed entries (the persistent part of the
// directory, §3.4) to w.
func (d *Dir) SaveTo(w io.Writer) error {
	var homed []Entry
	d.entries(func(e *Entry) {
		if e.HomedLocal {
			homed = append(homed, *e)
		}
	})
	e := enc.NewEncoder(64 * len(homed))
	e.U32(persistMagic)
	e.U32(uint32(len(homed)))
	for _, ent := range homed {
		e.Addr(ent.Page)
		e.U8(uint8(ent.State))
		e.NodeID(ent.Owner)
		e.NodeIDs(ent.Copyset)
		e.U64(ent.Version)
		e.Bool(ent.Dirty)
	}
	_, err := w.Write(e.Bytes())
	return err
}

// LoadFrom restores entries written by SaveTo as locally homed pages,
// each into the table tableOf returns for it; an entry tableOf has no
// table for (its region is no longer homed here) is dropped.
func (d *Dir) LoadFrom(r io.Reader, tableOf func(page gaddr.Addr) *Table) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("pagedir: read: %w", err)
	}
	dec := enc.NewDecoder(raw)
	if magic := dec.U32(); magic != persistMagic {
		return fmt.Errorf("pagedir: bad magic %#x", magic)
	}
	n := dec.U32()
	entries := make([]Entry, 0, n)
	for i := uint32(0); i < n; i++ {
		ent := Entry{HomedLocal: true}
		ent.Page = dec.Addr()
		ent.State = State(dec.U8())
		ent.Owner = dec.NodeID()
		ent.Copyset = dec.NodeIDs()
		ent.Version = dec.U64()
		ent.Dirty = dec.Bool()
		if dec.Err() != nil {
			return fmt.Errorf("pagedir: decode entry %d: %w", i, dec.Err())
		}
		entries = append(entries, ent)
	}
	if err := dec.Finish(); err != nil {
		return fmt.Errorf("pagedir: %w", err)
	}
	for _, ent := range entries {
		if t := tableOf(ent.Page); t != nil {
			t.Update(ent.Page, func(e *Entry) { *e = ent })
		}
	}
	return nil
}
