package store

import (
	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/pagedir"
	"khazana/internal/telemetry"
)

// Tiered composes the memory and disk tiers into the storage hierarchy of
// paper §3.4: gets promote pages from disk to RAM, puts land in RAM, and
// RAM overflow victimizes pages down to disk. When the disk tier itself
// victimizes a page, the configured EvictFunc (wired to the consistency
// protocol by the daemon) runs first so dirty data can be pushed to remote
// nodes.
type Tiered struct {
	mem  *MemStore
	disk *DiskStore
	// memMisses counts reads that fell through the RAM tier; nil (the
	// default) records nothing. Only the miss path touches it, so RAM
	// hits stay counter-free.
	memMisses *telemetry.Counter
}

// Config sizes a tiered store.
type Config struct {
	// MemPages bounds the RAM tier (0 = default).
	MemPages int
	// DiskPages bounds the disk tier (0 = unbounded).
	DiskPages int
	// Dir is the disk tier's directory.
	Dir string
	// OnDiskEvict runs before a page leaves the node entirely.
	OnDiskEvict EvictFunc
	// Pages is the page directory whose records hold the RAM tier's
	// frames; nil gives the store a directory of its own.
	Pages *pagedir.Dir
}

// NewTiered builds the two-level hierarchy.
func NewTiered(cfg Config) (*Tiered, error) {
	disk, err := NewDiskStore(cfg.Dir, cfg.DiskPages, cfg.OnDiskEvict)
	if err != nil {
		return nil, err
	}
	t := &Tiered{disk: disk}
	// RAM victimization demotes to disk.
	t.mem = newMemStore(cfg.Pages, cfg.MemPages, func(page gaddr.Addr, f *frame.Frame) error {
		return t.disk.Put(page, f)
	})
	return t, nil
}

// SetMissCounter installs the RAM-tier miss counter. Call before the
// store sees traffic; a nil counter (or never calling) disables counting.
func (t *Tiered) SetMissCounter(c *telemetry.Counter) { t.memMisses = c }

// SetReclaimer installs the RAM tier's version-chain give-back hook: it
// runs on eviction pressure, before any demand page is demoted, and
// returns the number of old-version frames it freed.
func (t *Tiered) SetReclaimer(fn func() int) { t.mem.SetReclaimer(fn) }

// Get returns the page's frame (caller must Release), promoting
// disk-resident pages to RAM. The frame is shared: treat its contents as
// immutable.
func (t *Tiered) Get(page gaddr.Addr) (*frame.Frame, bool) {
	if p := t.mem.rec(page, false); p != nil {
		return t.GetPage(p)
	}
	if !t.disk.Contains(page) {
		return nil, false
	}
	return t.GetPage(t.mem.rec(page, true))
}

// GetPage is Get by record.
func (t *Tiered) GetPage(p *pagedir.Page) (*frame.Frame, bool) {
	if f, ok := t.mem.GetPage(p); ok {
		return f, true
	}
	t.memMisses.Add(1)
	f, ok := t.disk.Get(p.Page)
	if !ok {
		return nil, false
	}
	// Promote; a failure is not fatal: RAM is a cache, the disk copy rules.
	_ = t.mem.PutPage(p, f)
	return f, true
}

// Put stores the page's frame in RAM (victimizing to disk as needed).
// The frame is borrowed: the RAM tier takes its own reference.
func (t *Tiered) Put(page gaddr.Addr, f *frame.Frame) error {
	return t.mem.Put(page, f)
}

// PutPage is Put by record.
func (t *Tiered) PutPage(p *pagedir.Page, f *frame.Frame) error { return t.mem.PutPage(p, f) }

// FlushAll forces every RAM-resident page to the persistent tier, used
// when a daemon shuts down cleanly so its state survives restart.
func (t *Tiered) FlushAll() error {
	for _, p := range t.mem.residents() {
		f, ok := t.mem.GetPage(p)
		if !ok {
			continue
		}
		err := t.disk.Put(p.Page, f)
		f.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// DeletePage removes the page from both tiers, a pinned RAM copy
// included.
func (t *Tiered) DeletePage(p *pagedir.Page) {
	t.mem.DeletePage(p)
	t.disk.Delete(p.Page)
}

// Discard removes the page from both tiers unless a lock context has the
// RAM copy pinned, in which case the RAM copy survives (the holder keeps
// its grant-time snapshot) while the disk copy still goes. Invalidation
// uses this so a holder whose context outlives its lock at the home reads
// stale-but-real bytes, never zeros; the directory's invalid mark forces a
// refetch on the next acquire.
func (t *Tiered) Discard(p *pagedir.Page) {
	t.mem.DeleteUnpinned(p)
	t.disk.Delete(p.Page)
}

// Contains reports residency in either tier.
func (t *Tiered) Contains(page gaddr.Addr) bool {
	return t.mem.resident(page) || t.disk.Contains(page)
}

// Pin protects a page from RAM victimization while locked.
func (t *Tiered) Pin(p *pagedir.Page) bool { return t.mem.Pin(p) }

// Unpin releases a pin.
func (t *Tiered) Unpin(p *pagedir.Page) error { return t.mem.Unpin(p) }

// Mem exposes the RAM tier for inspection.
func (t *Tiered) Mem() *MemStore { return t.mem }

// Disk exposes the disk tier for inspection.
func (t *Tiered) Disk() *DiskStore { return t.disk }

// Len returns the total number of distinct resident pages.
func (t *Tiered) Len() int {
	seen := make(map[gaddr.Addr]struct{})
	for _, p := range t.mem.Pages() {
		seen[p] = struct{}{}
	}
	for _, p := range t.disk.Pages() {
		seen[p] = struct{}{}
	}
	return len(seen)
}
