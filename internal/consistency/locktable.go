// Package consistency implements Khazana's consistency management
// framework (paper §3.3): program modules called Consistency Managers
// (CMs) run at each replica site and cooperate to implement the required
// level of consistency among replicas. A Khazana node treats lock requests
// as indications of intent to access in the specified mode and obtains the
// local CM's permission before granting them; the CM checks for conflicts
// with ongoing operations and, if necessary, delays granting locks until
// the conflict is resolved.
//
// Three protocols ship, matching the paper: CREW (Concurrent Read
// Exclusive Write, the prototype's only model, §5), release consistency
// (used for the address map tree nodes), and an eventual protocol for
// clients that tolerate temporarily out-of-date data. New protocols are
// plugged in by registering them (§5).
package consistency

import (
	"context"
	"fmt"
	"sync"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
)

// LockTable provides per-page local lock accounting with blocking
// acquisition. Conflict rules:
//
//   - LockRead conflicts with an exclusive writer.
//   - LockWrite is exclusive: conflicts with readers, shared writers, and
//     other writers.
//   - LockWriteShared conflicts only with an exclusive writer (it coexists
//     with readers and other shared writers; the region's protocol is
//     responsible for merging).
//
// Invariant: an entry exists iff the page has a holder or a waiter, and a
// waiter only ever parks behind a holder — so Held, Len and the migration
// quiescence check see exactly the pages somebody holds. Entries live in
// the map by value and a page's gate channel exists only while a waiter
// is parked on it, so an uncontended acquire/release pair allocates
// nothing.
type LockTable struct {
	mu    sync.Mutex
	pages map[gaddr.Addr]pageLock
}

type pageLock struct {
	readers       int32
	sharedWriters int32
	exclusive     bool
	// waiters counts the goroutines parked on gate. The first waiter makes
	// the gate; the release that wakes them closes and clears it, and the
	// last waiter to give up (ctx done) clears it too.
	waiters int32
	gate    chan struct{}
}

// NewLockTable creates an empty lock table.
func NewLockTable() *LockTable {
	return &LockTable{pages: make(map[gaddr.Addr]pageLock)}
}

// Acquire blocks until the page can be locked in the given mode or the
// context is done. An invalid mode fails immediately: no release could
// ever admit it.
func (lt *LockTable) Acquire(ctx context.Context, page gaddr.Addr, mode ktypes.LockMode) error {
	if !mode.Valid() {
		return fmt.Errorf("consistency: invalid lock mode %d", mode)
	}
	lt.mu.Lock()
	for {
		pl := lt.pages[page]
		if pl.admit(mode) {
			lt.pages[page] = pl
			lt.mu.Unlock()
			return nil
		}
		if pl.gate == nil {
			pl.gate = make(chan struct{})
		}
		gate := pl.gate
		pl.waiters++
		lt.pages[page] = pl
		lt.mu.Unlock()
		select {
		case <-gate:
			lt.mu.Lock()
		case <-ctx.Done():
			lt.mu.Lock()
			// Still parked on the entry's gate (no release raced the
			// expiry): leave it, taking the gate along if nobody else waits.
			if pl = lt.pages[page]; pl.gate == gate {
				if pl.waiters--; pl.waiters == 0 {
					pl.gate = nil
				}
				lt.pages[page] = pl
			}
			lt.mu.Unlock()
			return ctx.Err()
		}
	}
}

// TryAcquire attempts a non-blocking lock, reporting success. A refused
// attempt leaves the table untouched.
func (lt *LockTable) TryAcquire(page gaddr.Addr, mode ktypes.LockMode) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	pl := lt.pages[page]
	if !pl.admit(mode) {
		return false
	}
	lt.pages[page] = pl
	return true
}

// admit grants the mode if compatible with current holders. Caller holds
// the table mutex and stores the entry back on success.
func (pl *pageLock) admit(mode ktypes.LockMode) bool {
	switch mode {
	case ktypes.LockRead:
		if pl.exclusive {
			return false
		}
		pl.readers++
		return true
	case ktypes.LockWrite:
		if pl.exclusive || pl.readers > 0 || pl.sharedWriters > 0 {
			return false
		}
		pl.exclusive = true
		return true
	case ktypes.LockWriteShared:
		if pl.exclusive {
			return false
		}
		pl.sharedWriters++
		return true
	default:
		return false
	}
}

// drop gives up one hold in mode, reporting whether there was one.
func (pl *pageLock) drop(mode ktypes.LockMode) bool {
	switch {
	case mode == ktypes.LockRead && pl.readers > 0:
		pl.readers--
	case mode == ktypes.LockWrite && pl.exclusive:
		pl.exclusive = false
	case mode == ktypes.LockWriteShared && pl.sharedWriters > 0:
		pl.sharedWriters--
	default:
		return false
	}
	return true
}

// Release drops a lock previously acquired in mode. Releasing an unheld
// lock panics: it is a programming error in the daemon, not a runtime
// condition.
func (lt *LockTable) Release(page gaddr.Addr, mode ktypes.LockMode) {
	if !lt.TryRelease(page, mode) {
		panic(fmt.Sprintf("consistency: release of unheld %v lock on page %v", mode, page))
	}
}

// TryRelease drops a lock if it is held, reporting whether it was. It is
// used on paths where a release may legitimately arrive at a node that
// never granted the lock — e.g. a retried release reaching a freshly
// promoted home after failover (§3.5).
func (lt *LockTable) TryRelease(page gaddr.Addr, mode ktypes.LockMode) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	pl, ok := lt.pages[page]
	if !ok || !pl.drop(mode) {
		return false
	}
	// Wake the waiters, if any; each re-checks under the mutex and the
	// losers park on a fresh gate.
	if pl.gate != nil {
		close(pl.gate)
		pl.gate, pl.waiters = nil, 0
	}
	if pl.readers == 0 && pl.sharedWriters == 0 && !pl.exclusive {
		delete(lt.pages, page)
	} else {
		lt.pages[page] = pl
	}
	return true
}

// WriteLocked reports whether any write-intent lock (exclusive or shared)
// is currently held on the page.
func (lt *LockTable) WriteLocked(page gaddr.Addr) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	pl := lt.pages[page]
	return pl.exclusive || pl.sharedWriters > 0
}

// Readers returns the number of read locks currently held on the page.
// Snapshot reads never appear here — they bypass the lock table entirely
// — which tests use to prove the snapshot path is lock-free.
func (lt *LockTable) Readers(page gaddr.Addr) int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return int(lt.pages[page].readers)
}

// Held reports whether any lock is currently held on the page.
func (lt *LockTable) Held(page gaddr.Addr) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	_, ok := lt.pages[page]
	return ok
}

// Len returns the number of pages with active locks.
func (lt *LockTable) Len() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return len(lt.pages)
}
