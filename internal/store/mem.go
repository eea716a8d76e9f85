// Package store implements Khazana's node-local storage hierarchy (paper
// §3.4): node-local storage is treated as a cache of global data indexed
// by global addresses, organized into tiers by access speed. The prototype
// matches the paper's two levels — main memory and on-disk — with LRU
// victimization from RAM to disk and an eviction callback so the
// consistency protocol can push dirty data before a page leaves the node.
//
// The RAM tier holds refcounted page frames (internal/frame), so a cache
// hit is a Retain rather than an allocation + copy. Frames handed out by
// Get are shared and immutable; a caller that wants to mutate takes an
// exclusive copy-on-write clone via frame.Exclusive and Puts the result
// back.
package store

import (
	"errors"
	"fmt"
	"sync"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
)

// Errors returned by stores.
var (
	// ErrFull reports that a store is at capacity and every resident
	// page is pinned.
	ErrFull = errors.New("store: full; all pages pinned")
	// ErrNotPinned reports an Unpin without a matching Pin.
	ErrNotPinned = errors.New("store: page not pinned")
)

// EvictFunc receives pages victimized from a tier. The frame is borrowed
// for the duration of the call: retain it to keep it longer. Returning an
// error aborts the eviction (and the Put that triggered it).
type EvictFunc func(page gaddr.Addr, f *frame.Frame) error

// MemStore is the main-memory tier: a bounded page cache with LRU
// victimization. Pinned pages (pages under an active lock context) are
// never victimized. Each resident page holds one frame reference.
type MemStore struct {
	mu      sync.Mutex
	pages   map[gaddr.Addr]memPage
	cap     int
	clock   uint64
	onEvict EvictFunc
	// reclaim, when set, gives back memory held outside the cache proper
	// (old page versions retained for snapshot readers) and returns the
	// number of frames freed. It runs on eviction pressure, before any
	// demand page is victimized, so old versions always evict first. It
	// must not call back into the store.
	reclaim func() int
}

// memPage is one resident page, kept by value in the map so a page
// re-fetched after an invalidation costs no allocation: every mutator
// writes the entry back.
type memPage struct {
	f      *frame.Frame
	used   uint64
	pinned int
}

// DefaultMemCapacity is the default number of resident pages.
const DefaultMemCapacity = 4096

// NewMemStore creates a memory tier holding at most capacity pages.
// onEvict (optional) observes victimized pages; capacity <= 0 selects the
// default.
func NewMemStore(capacity int, onEvict EvictFunc) *MemStore {
	if capacity <= 0 {
		capacity = DefaultMemCapacity
	}
	// The map grows with the resident set rather than being sized for
	// capacity up front: by-value entries would make every node's start-up
	// pay for a full table most nodes never fill.
	return &MemStore{
		pages:   make(map[gaddr.Addr]memPage),
		cap:     capacity,
		onEvict: onEvict,
	}
}

// Get returns the page's frame with a reference the caller must Release.
// The frame is shared: treat its contents as immutable.
func (s *MemStore) Get(page gaddr.Addr) (*frame.Frame, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pages[page]
	if !ok {
		return nil, false
	}
	// A pinned page is no eviction candidate, and its last Unpin stamps
	// its recency, so only an unpinned page's entry is written back here.
	if p.pinned == 0 {
		s.clock++
		p.used = s.clock
		s.pages[page] = p
	}
	return p.f.Retain(), true
}

// GetCopy returns a private copy of the page's contents, for callers
// that want plain bytes free of the frame lifetime rules.
func (s *MemStore) GetCopy(page gaddr.Addr) ([]byte, bool) {
	f, ok := s.Get(page)
	if !ok {
		return nil, false
	}
	out := append([]byte(nil), f.Bytes()...)
	f.Release()
	return out, true
}

// Put stores the frame for the page, victimizing the LRU unpinned page
// if the store is full. The frame is borrowed: the store takes its own
// reference and the caller keeps (and still owns) its reference.
func (s *MemStore) Put(page gaddr.Addr, f *frame.Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++
	if p, ok := s.pages[page]; ok {
		old := p.f
		//khazana:frame-owner the resident memPage holds the store's reference
		p.f = f.Retain()
		p.used = s.clock
		s.pages[page] = p
		old.Release()
		return nil
	}
	if len(s.pages) >= s.cap {
		if err := s.evictLocked(); err != nil {
			return err
		}
	}
	//khazana:frame-owner the resident memPage holds the store's reference
	s.pages[page] = memPage{f: f.Retain(), used: s.clock}
	return nil
}

// PutBytes stores a copy of data for the page (convenience wrapper over
// Put for callers holding plain bytes).
func (s *MemStore) PutBytes(page gaddr.Addr, data []byte) error {
	f := frame.Copy(data)
	err := s.Put(page, f)
	f.Release()
	return err
}

// SetReclaimer installs the version-chain give-back hook (see the
// reclaim field). Call before the store sees traffic.
func (s *MemStore) SetReclaimer(fn func() int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reclaim = fn
}

// evictLocked victimizes the least recently used unpinned page. Before a
// page is demoted, retained old page versions are reclaimed — they are
// the cheapest memory to give back and must never cost a resident page
// its slot.
func (s *MemStore) evictLocked() error {
	if s.reclaim != nil {
		s.reclaim()
	}
	var victim gaddr.Addr
	var vp memPage
	found := false
	for page, p := range s.pages {
		if p.pinned > 0 {
			continue
		}
		if !found || p.used < vp.used {
			victim, vp, found = page, p, true
		}
	}
	if !found {
		return ErrFull
	}
	if s.onEvict != nil {
		if err := s.onEvict(victim, vp.f); err != nil {
			return fmt.Errorf("store: evict %v: %w", victim, err)
		}
	}
	delete(s.pages, victim)
	vp.f.Release()
	return nil
}

// Delete drops the page if present.
func (s *MemStore) Delete(page gaddr.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pages[page]
	if !ok {
		return
	}
	delete(s.pages, page)
	p.f.Release()
}

// DeleteUnpinned drops the page unless a lock context has it pinned, and
// reports whether the page is gone. A pinned page survives so the holder
// keeps reading its grant-time snapshot; the caller is expected to mark
// the page invalid in the directory so the next acquire refetches.
func (s *MemStore) DeleteUnpinned(page gaddr.Addr) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pages[page]
	if !ok {
		return true
	}
	if p.pinned > 0 {
		return false
	}
	delete(s.pages, page)
	p.f.Release()
	return true
}

// Pin marks the page non-victimizable. Pins nest.
func (s *MemStore) Pin(page gaddr.Addr) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pages[page]
	if !ok {
		return false
	}
	p.pinned++
	s.pages[page] = p
	return true
}

// Unpin releases one pin. The page counts as used until its pins drop,
// so Unpin refreshes its recency.
func (s *MemStore) Unpin(page gaddr.Addr) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pages[page]
	if !ok || p.pinned == 0 {
		return ErrNotPinned
	}
	p.pinned--
	s.clock++
	p.used = s.clock
	s.pages[page] = p
	return nil
}

// Contains reports residency without touching LRU state.
func (s *MemStore) Contains(page gaddr.Addr) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.pages[page]
	return ok
}

// Len returns the number of resident pages.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pages)
}

// Pages returns the resident page addresses.
func (s *MemStore) Pages() []gaddr.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]gaddr.Addr, 0, len(s.pages))
	for page := range s.pages {
		out = append(out, page)
	}
	return out
}
