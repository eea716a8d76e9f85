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
	"khazana/internal/pagedir"
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
// never victimized. A resident page's frame, pins and recency live in its
// page-directory record (pagedir.Page.Mem), guarded by the store's mutex;
// each resident page holds one frame reference.
type MemStore struct {
	mu      sync.Mutex
	dir     *pagedir.Dir
	lru     pagedir.LRU
	n, cap  int
	onEvict EvictFunc
	// reclaim, when set, gives back memory held outside the cache proper
	// (old page versions retained for snapshot readers) and returns the
	// number of frames freed. It runs on eviction pressure, before any
	// demand page is victimized, so old versions always evict first. It
	// must not call back into the store.
	reclaim func() int
}

// DefaultMemCapacity is the default number of resident pages.
const DefaultMemCapacity = 4096

// NewMemStore creates a memory tier holding at most capacity pages, with
// a page directory of its own. onEvict (optional) observes victimized
// pages; capacity <= 0 selects the default.
func NewMemStore(capacity int, onEvict EvictFunc) *MemStore {
	return newMemStore(nil, capacity, onEvict)
}

func newMemStore(dir *pagedir.Dir, capacity int, onEvict EvictFunc) *MemStore {
	if capacity <= 0 {
		capacity = DefaultMemCapacity
	}
	if dir == nil {
		dir = pagedir.New()
	}
	s := &MemStore{dir: dir, cap: capacity, onEvict: onEvict}
	s.lru.Init()
	return s
}

// Get returns the page's frame with a reference the caller must Release.
// The frame is shared: treat its contents as immutable.
func (s *MemStore) Get(page gaddr.Addr) (*frame.Frame, bool) {
	if p := s.rec(page, false); p != nil {
		return s.GetPage(p)
	}
	return nil, false
}

// rec returns page's record for the address-keyed Get and Put: the one in
// the page table covering page, made when create is set. A daemon keeps
// every page in its region's table; a store used on its own gives a page
// outside every table a one-page table.
func (s *MemStore) rec(page gaddr.Addr, create bool) *pagedir.Page {
	t := s.dir.Find(page)
	switch {
	case t != nil && create:
		return t.Touch(page)
	case t != nil:
		return t.Rec(page)
	case create:
		return s.dir.Table(page, 1, 1).Touch(page)
	}
	return nil
}

// GetPage is Get by record.
func (s *MemStore) GetPage(p *pagedir.Page) (*frame.Frame, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.Mem.Frame == nil {
		return nil, false
	}
	// A pinned page is no eviction candidate, and its last Unpin stamps
	// its recency.
	if p.Mem.Pins == 0 {
		s.lru.Front(p)
	}
	return p.Mem.Frame.Retain(), true
}

// Put stores the frame for the page, victimizing the LRU unpinned page
// if the store is full. The frame is borrowed: the store takes its own
// reference and the caller keeps (and still owns) its reference.
func (s *MemStore) Put(page gaddr.Addr, f *frame.Frame) error {
	return s.PutPage(s.rec(page, true), f)
}

// PutPage is Put by record.
func (s *MemStore) PutPage(p *pagedir.Page, f *frame.Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := p.Mem.Frame
	if old == nil && s.n >= s.cap {
		if err := s.evictLocked(); err != nil {
			return err
		}
	}
	//khazana:frame-owner the resident record holds the store's reference
	p.Mem.Frame = f.Retain()
	s.lru.Front(p)
	if old != nil {
		old.Release()
	} else {
		s.n++
	}
	return nil
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
	victim := s.lru.Oldest(func(p *pagedir.Page) bool { return p.Mem.Pins == 0 })
	if victim == nil {
		return ErrFull
	}
	if s.onEvict != nil {
		if err := s.onEvict(victim.Page, victim.Mem.Frame); err != nil {
			return fmt.Errorf("store: evict %v: %w", victim.Page, err)
		}
	}
	s.dropLocked(victim)
	return nil
}

func (s *MemStore) dropLocked(p *pagedir.Page) {
	s.lru.Remove(p)
	p.Mem.Frame.Release()
	p.Mem.Frame, p.Mem.Pins = nil, 0
	s.n--
}

// DeletePage drops the page's RAM copy if present, pinned or not.
func (s *MemStore) DeletePage(p *pagedir.Page) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.Mem.Frame != nil {
		s.dropLocked(p)
	}
}

// DeleteUnpinned drops the page unless a lock context has it pinned, and
// reports whether the page is gone. A pinned page survives so the holder
// keeps reading its grant-time snapshot; the caller is expected to mark
// the page invalid in the directory so the next acquire refetches.
func (s *MemStore) DeleteUnpinned(p *pagedir.Page) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.Mem.Frame == nil {
		return true
	}
	if p.Mem.Pins > 0 {
		return false
	}
	s.dropLocked(p)
	return true
}

// Pin marks the page non-victimizable. Pins nest.
func (s *MemStore) Pin(p *pagedir.Page) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.Mem.Frame == nil {
		return false
	}
	p.Mem.Pins++
	return true
}

// Unpin releases one pin. The page counts as used until its pins drop,
// so Unpin refreshes its recency.
func (s *MemStore) Unpin(p *pagedir.Page) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.Mem.Frame == nil || p.Mem.Pins == 0 {
		return ErrNotPinned
	}
	p.Mem.Pins--
	s.lru.Front(p)
	return nil
}

// resident reports whether the page has a RAM copy, without touching
// its recency.
func (s *MemStore) resident(page gaddr.Addr) bool {
	p := s.rec(page, false)
	if p == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return p.Mem.Frame != nil
}

// Len returns the number of resident pages.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Pages returns the resident page addresses.
func (s *MemStore) Pages() []gaddr.Addr {
	recs := s.residents()
	out := make([]gaddr.Addr, len(recs))
	for i, p := range recs {
		out[i] = p.Page
	}
	return out
}

// residents returns the records of the resident pages.
func (s *MemStore) residents() []*pagedir.Page {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*pagedir.Page, 0, s.n)
	s.lru.Each(func(p *pagedir.Page) { out = append(out, p) })
	return out
}
