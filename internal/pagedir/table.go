package pagedir

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
)

// Page is one page's record: its directory entry, its lock-table slot,
// its version chain, its parked update and the RAM tier's resident frame,
// kept together so each phase of an operation finds all of them in one
// slot. A region uses one protocol, so its pages use the lock slot either
// as the CREW home's global lock or as the release and eventual
// protocols' local lock, never both.
type Page struct {
	// Entry, the lock slot and Chain are guarded by the table's mutex.
	Entry
	lock lockState
	// Chain is the page's committed version chain, nil until its first
	// publish: at a CREW home the versions snapshots read, seeded at the
	// first write grant; under eventual consistency the last writer's
	// winning copy.
	Chain *frame.Chain
	// Pending is an eventual update that arrived while the page was
	// write-locked here, applied when the lock releases; guarded by the
	// table's push lock.
	Pending *Parked
	// Mem is the RAM tier's part, guarded by the memory tier's mutex.
	Mem Resident
}

// Parked is an update held until the page's local write lock releases.
type Parked struct {
	//khazana:frame-owner released when the parked update is applied or superseded
	Frame   *frame.Frame
	Version uint64
	Origin  ktypes.NodeID
}

// Resident is a page's slot in the RAM tier.
type Resident struct {
	// Frame is the resident copy, holding one reference; nil when the page
	// is not in RAM.
	Frame *frame.Frame
	// Pins counts the lock contexts that keep the page from eviction.
	Pins       int32
	prev, next *Page // recency ring (see LRU)
}

// lockState is the lock-table slot. Its gate exists only while a waiter
// is parked on it, so an uncontended acquire/release pair allocates
// nothing. listed rides in its padding.
type lockState struct {
	readers       int32
	sharedWriters int32
	// waiters counts the goroutines parked on gate. The first waiter makes
	// the gate; the release that wakes them closes and clears it, and the
	// last waiter to give up (ctx done) clears it too.
	waiters   int32
	exclusive bool
	// listed reports that the directory holds an entry for the page.
	listed bool
	gate   chan struct{}
}

// Table is a region's page table: one slot per page, found by arithmetic
// ((page - start) / page size), holding a record allocated when the page
// is first touched. Small tables keep their slots flat; a table of more
// than chunkSlots pages allocates them a chunk at a time. Slots are read
// without the mutex, so a record once made stays until the table is
// dropped; everything else the records hold is guarded by mu.
type Table struct {
	mu    sync.Mutex
	start gaddr.Addr
	size  uint64
	shift uint8
	// dropped marks a table taken out of its directory.
	dropped atomic.Bool
	flat    []atomic.Pointer[Page]
	chunks  []atomic.Pointer[chunk]
	// push serializes installs of pushed copies: compare, store and label
	// are one step per page (see consistency.StoreUpdates), and it guards
	// each record's Pending.
	push sync.Mutex
}

const chunkShift = 8
const chunkSlots = 1 << chunkShift

type chunk [chunkSlots]atomic.Pointer[Page]

func newTable(start gaddr.Addr, size, pageSize uint64) *Table {
	t := &Table{start: start, size: size}
	for pageSize > 1<<t.shift {
		t.shift++
	}
	if n := (size + pageSize - 1) >> t.shift; n <= chunkSlots {
		t.flat = make([]atomic.Pointer[Page], n)
	} else {
		t.chunks = make([]atomic.Pointer[chunk], (n+chunkSlots-1)>>chunkShift)
	}
	return t
}

// Start returns the first address the table covers.
func (t *Table) Start() gaddr.Addr { return t.start }

// Dropped reports whether the table was taken out of its directory: its
// region was torn down here.
func (t *Table) Dropped() bool { return t.dropped.Load() }

// slot returns page's slot and the address of its page, making the
// slot's chunk when create is set (under mu); nil when page lies outside
// the table or its chunk is absent.
func (t *Table) slot(page gaddr.Addr, create bool) (*atomic.Pointer[Page], gaddr.Addr) {
	off, ok := t.start.Distance(page)
	if !ok || off >= t.size {
		return nil, page
	}
	i := off >> t.shift
	base := t.start.MustAdd(i << t.shift)
	if t.flat != nil {
		return &t.flat[i], base
	}
	c := t.chunks[i>>chunkShift].Load()
	if c == nil {
		if !create {
			return nil, base
		}
		c = new(chunk)
		t.chunks[i>>chunkShift].Store(c)
	}
	return &c[i&(chunkSlots-1)], base
}

// covers reports whether page lies inside the table.
func (t *Table) covers(page gaddr.Addr) bool {
	off, ok := t.start.Distance(page)
	return ok && off < t.size
}

// Rec returns page's record, or nil if the page was never touched. It
// takes no lock.
func (t *Table) Rec(page gaddr.Addr) *Page {
	if s, _ := t.slot(page, false); s != nil {
		return s.Load()
	}
	return nil
}

// Touch returns page's record, making it on first touch; nil if the page
// lies outside the table.
func (t *Table) Touch(page gaddr.Addr) *Page {
	if p := t.Rec(page); p != nil {
		return p
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.touchLocked(page)
}

func (t *Table) touchLocked(page gaddr.Addr) *Page {
	s, base := t.slot(page, true)
	if s == nil {
		return nil
	}
	p := s.Load()
	if p == nil {
		p = &Page{Entry: Entry{Page: base}}
		s.Store(p)
	}
	return p
}

// With runs fn on page's record (made on first touch) under the table's
// mutex, and lists the page in the directory. fn takes no lock and does
// not call back into the table or the store.
func (t *Table) With(page gaddr.Addr, fn func(*Page)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.touchLocked(page); p != nil {
		p.lock.listed = true
		fn(p)
	}
}

// Update mutates (creating if needed) page's directory entry.
func (t *Table) Update(page gaddr.Addr, fn func(*Entry)) {
	t.With(page, func(p *Page) { fn(&p.Entry) })
}

// Lookup returns a copy of page's directory entry. Its Copyset is the
// stored slice, shared and read-only.
func (t *Table) Lookup(page gaddr.Addr) (Entry, bool) {
	p := t.Rec(page)
	if p == nil {
		return Entry{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return p.Entry, p.lock.listed
}

// Delete removes page's directory entry; its lock slot, chain and
// resident frame are untouched.
func (t *Table) Delete(page gaddr.Addr) {
	p := t.Rec(page)
	if p == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p.Entry = Entry{Page: p.Page}
	p.lock.listed = false
}

// Each calls fn on every record of the table under its mutex, in page
// order.
func (t *Table) Each(fn func(*Page)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	visit := func(slots []atomic.Pointer[Page]) {
		for i := range slots {
			if p := slots[i].Load(); p != nil {
				fn(p)
			}
		}
	}
	visit(t.flat)
	for i := range t.chunks {
		if c := t.chunks[i].Load(); c != nil {
			visit(c[:])
		}
	}
}

// PushLock returns the table's lock for installing a pushed copy, held
// across the version check, the store and the label so racing pushes
// serialize.
func (t *Table) PushLock() *sync.Mutex { return &t.push }

// --- lock-table slot ---------------------------------------------------------
//
// Conflict rules:
//
//   - LockRead conflicts with an exclusive writer.
//   - LockWrite is exclusive: conflicts with readers, shared writers, and
//     other writers.
//   - LockWriteShared conflicts only with an exclusive writer (it coexists
//     with readers and other shared writers; the region's protocol is
//     responsible for merging).
//
// A waiter only ever parks behind a holder.

// Acquire blocks until page can be locked in mode or ctx is done. An
// invalid mode fails immediately: no release could ever admit it.
func (t *Table) Acquire(ctx context.Context, page gaddr.Addr, mode ktypes.LockMode) error {
	if !mode.Valid() {
		return fmt.Errorf("pagedir: invalid lock mode %d", mode)
	}
	t.mu.Lock()
	p := t.touchLocked(page)
	if p == nil {
		t.mu.Unlock()
		return fmt.Errorf("pagedir: page %v outside its table", page)
	}
	for {
		if p.lock.admit(mode) {
			t.mu.Unlock()
			return nil
		}
		if p.lock.gate == nil {
			p.lock.gate = make(chan struct{})
		}
		gate := p.lock.gate
		p.lock.waiters++
		t.mu.Unlock()
		select {
		case <-gate:
			t.mu.Lock()
		case <-ctx.Done():
			t.mu.Lock()
			// Still parked on the slot's gate (no release raced the
			// expiry): leave it, taking the gate along if nobody else waits.
			if p.lock.gate == gate {
				if p.lock.waiters--; p.lock.waiters == 0 {
					p.lock.gate = nil
				}
			}
			t.mu.Unlock()
			return ctx.Err()
		}
	}
}

// Release drops a lock the caller holds in mode. Releasing a lock that is
// not held panics: it is a programming error in the daemon, not a runtime
// condition.
func (t *Table) Release(page gaddr.Addr, mode ktypes.LockMode) {
	if !t.TryRelease(page, mode) {
		panic(fmt.Sprintf("pagedir: release of unheld %v lock on page %v", mode, page))
	}
}

// TryRelease drops a lock if it is held, reporting whether it was. The
// release that may legitimately find no hold, a retried one reaching a
// home promoted after failover (§3.5), does the same under With
// (Page.Unlock).
func (t *Table) TryRelease(page gaddr.Addr, mode ktypes.LockMode) bool {
	p := t.Rec(page)
	if p == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return p.lock.drop(mode)
}

// WriteLocked reports whether any write-intent lock (exclusive or shared)
// is held on page.
func (t *Table) WriteLocked(page gaddr.Addr) bool {
	l := t.lockOf(page)
	return l.exclusive || l.sharedWriters > 0
}

// Readers returns the number of read locks held on page. Snapshot reads
// never appear here: they bypass the lock table entirely.
func (t *Table) Readers(page gaddr.Addr) int { return int(t.lockOf(page).readers) }

// Waiters returns the number of goroutines parked on page's lock.
func (t *Table) Waiters(page gaddr.Addr) int { return int(t.lockOf(page).waiters) }

// Gated reports whether page's lock has a gate, which exists only while
// a waiter is parked on it.
func (t *Table) Gated(page gaddr.Addr) bool { return t.lockOf(page).gate != nil }

// Held reports whether any lock is held on page.
func (t *Table) Held(page gaddr.Addr) bool { return t.lockOf(page).held() }

func (t *Table) lockOf(page gaddr.Addr) lockState {
	p := t.Rec(page)
	if p == nil {
		return lockState{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return p.lock
}

// TryLock takes the page's lock in mode if that is compatible with its
// holders, reporting success. The caller holds the table's mutex (With).
func (p *Page) TryLock(mode ktypes.LockMode) bool { return p.lock.admit(mode) }

// Unlock drops one hold of the page's lock in mode, reporting whether
// there was one. The caller holds the table's mutex (With).
func (p *Page) Unlock(mode ktypes.LockMode) bool { return p.lock.drop(mode) }

// Held reports whether the page's lock has a holder. The caller holds the
// table's mutex (With, Each).
func (p *Page) Held() bool { return p.lock.held() }

// admit grants the mode if compatible with current holders.
func (l *lockState) admit(mode ktypes.LockMode) bool {
	switch mode {
	case ktypes.LockRead:
		if l.exclusive {
			return false
		}
		l.readers++
		return true
	case ktypes.LockWrite:
		if l.held() {
			return false
		}
		l.exclusive = true
		return true
	case ktypes.LockWriteShared:
		if l.exclusive {
			return false
		}
		l.sharedWriters++
		return true
	default:
		return false
	}
}

// drop gives up one hold in mode, reporting whether there was one, and
// wakes the waiters, if any; each re-checks under the mutex and the
// losers park on a fresh gate.
func (l *lockState) drop(mode ktypes.LockMode) bool {
	switch {
	case mode == ktypes.LockRead && l.readers > 0:
		l.readers--
	case mode == ktypes.LockWrite && l.exclusive:
		l.exclusive = false
	case mode == ktypes.LockWriteShared && l.sharedWriters > 0:
		l.sharedWriters--
	default:
		return false
	}
	if l.gate != nil {
		close(l.gate)
		l.gate, l.waiters = nil, 0
	}
	return true
}

func (l lockState) held() bool { return l.readers > 0 || l.sharedWriters > 0 || l.exclusive }

// --- RAM-tier recency ----------------------------------------------------------

// LRU is the RAM tier's recency ring of resident records, most recent
// first. Its owner guards it and the records' Mem fields with one mutex.
type LRU struct{ root Page }

// Init empties the ring.
func (l *LRU) Init() { l.root.Mem.prev, l.root.Mem.next = &l.root, &l.root }

// Front makes p the most recently used record, inserting it if absent.
func (l *LRU) Front(p *Page) {
	if p.Mem.prev != nil {
		l.Remove(p)
	}
	p.Mem.prev, p.Mem.next = &l.root, l.root.Mem.next
	p.Mem.next.Mem.prev = p
	l.root.Mem.next = p
}

// Remove takes p off the ring.
func (l *LRU) Remove(p *Page) {
	p.Mem.prev.Mem.next, p.Mem.next.Mem.prev = p.Mem.next, p.Mem.prev
	p.Mem.prev, p.Mem.next = nil, nil
}

// Oldest returns the least recently used record keep accepts, or nil.
func (l *LRU) Oldest(keep func(*Page) bool) *Page {
	for p := l.root.Mem.prev; p != &l.root; p = p.Mem.prev {
		if keep(p) {
			return p
		}
	}
	return nil
}

// Each calls fn on every record, most recent first.
func (l *LRU) Each(fn func(*Page)) {
	for p := l.root.Mem.next; p != &l.root; p = p.Mem.next {
		fn(p)
	}
}
