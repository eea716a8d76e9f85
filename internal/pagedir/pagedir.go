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
	"sync"

	"khazana/internal/enc"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
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
	// packs into 96 bytes.
	spare []ktypes.NodeID
	// Version counts committed writes to the page.
	Version uint64
	// Stamp is the last-writer-wins timestamp for the eventual protocol.
	Stamp int64
	// StampNode breaks Stamp ties.
	StampNode ktypes.NodeID
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

// Dir is a node's page directory.
type Dir struct {
	mu      sync.Mutex
	entries map[gaddr.Addr]*Entry
	pushMu  [64]sync.Mutex // stripes PushLock
}

// PushLock returns page's lock for installing a pushed copy, held across
// the version check, the store and the label so racing pushes serialize.
func (d *Dir) PushLock(page gaddr.Addr) *sync.Mutex {
	return &d.pushMu[(page.Hi^page.Lo>>12)%uint64(len(d.pushMu))]
}

// New creates an empty page directory.
func New() *Dir {
	return &Dir{entries: make(map[gaddr.Addr]*Entry)}
}

// Lookup returns a copy of the entry for the page. Its Copyset is the
// stored slice, shared and read-only.
func (d *Dir) Lookup(page gaddr.Addr) (Entry, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[page]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Update atomically mutates (creating if needed) the entry for page.
func (d *Dir) Update(page gaddr.Addr, fn func(*Entry)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[page]
	if !ok {
		e = &Entry{Page: page}
		d.entries[page] = e
	}
	fn(e)
}

// Delete removes the entry for page.
func (d *Dir) Delete(page gaddr.Addr) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.entries, page)
}

// Len returns the number of entries.
func (d *Dir) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// Pages returns all tracked page addresses.
func (d *Dir) Pages() []gaddr.Addr {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]gaddr.Addr, 0, len(d.entries))
	for p := range d.entries {
		out = append(out, p)
	}
	return out
}

// HomedPages returns the pages homed locally.
func (d *Dir) HomedPages() []gaddr.Addr {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []gaddr.Addr
	for p, e := range d.entries {
		if e.HomedLocal {
			out = append(out, p)
		}
	}
	return out
}

// persistMagic guards the persistence format.
const persistMagic = 0x4b50_4449 // "KPDI"

// SaveTo writes the locally homed entries (the persistent part of the
// directory, §3.4) to w.
func (d *Dir) SaveTo(w io.Writer) error {
	d.mu.Lock()
	var homed []*Entry
	for _, e := range d.entries {
		if e.HomedLocal {
			homed = append(homed, e)
		}
	}
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
		e.I64(ent.Stamp)
		e.NodeID(ent.StampNode)
	}
	d.mu.Unlock()
	_, err := w.Write(e.Bytes())
	return err
}

// LoadFrom restores entries written by SaveTo, merging them into the
// directory as locally homed pages.
func (d *Dir) LoadFrom(r io.Reader) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("pagedir: read: %w", err)
	}
	dec := enc.NewDecoder(raw)
	if magic := dec.U32(); magic != persistMagic {
		return fmt.Errorf("pagedir: bad magic %#x", magic)
	}
	n := dec.U32()
	entries := make([]*Entry, 0, n)
	for i := uint32(0); i < n; i++ {
		ent := &Entry{HomedLocal: true}
		ent.Page = dec.Addr()
		ent.State = State(dec.U8())
		ent.Owner = dec.NodeID()
		ent.Copyset = dec.NodeIDs()
		ent.Version = dec.U64()
		ent.Dirty = dec.Bool()
		ent.Stamp = dec.I64()
		ent.StampNode = dec.NodeID()
		if dec.Err() != nil {
			return fmt.Errorf("pagedir: decode entry %d: %w", i, dec.Err())
		}
		entries = append(entries, ent)
	}
	if err := dec.Finish(); err != nil {
		return fmt.Errorf("pagedir: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ent := range entries {
		d.entries[ent.Page] = ent
	}
	return nil
}
