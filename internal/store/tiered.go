package store

import (
	"fmt"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
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
}

// NewTiered builds the two-level hierarchy.
func NewTiered(cfg Config) (*Tiered, error) {
	disk, err := NewDiskStore(cfg.Dir, cfg.DiskPages, cfg.OnDiskEvict)
	if err != nil {
		return nil, err
	}
	t := &Tiered{disk: disk}
	// RAM victimization demotes to disk.
	t.mem = NewMemStore(cfg.MemPages, func(page gaddr.Addr, f *frame.Frame) error {
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
	if f, ok := t.mem.Get(page); ok {
		return f, true
	}
	t.memMisses.Add(1)
	f, ok := t.disk.Get(page)
	if !ok {
		return nil, false
	}
	// Promote; a failure to promote is not fatal — the data is valid.
	//khazana:ignore-err promotion to RAM is a cache optimization; the disk copy remains authoritative
	_ = t.mem.Put(page, f)
	return f, true
}

// GetCopy returns a private copy of the page's contents.
func (t *Tiered) GetCopy(page gaddr.Addr) ([]byte, bool) {
	f, ok := t.Get(page)
	if !ok {
		return nil, false
	}
	out := append([]byte(nil), f.Bytes()...)
	f.Release()
	return out, true
}

// Put stores the page's frame in RAM (victimizing to disk as needed).
// The frame is borrowed: the RAM tier takes its own reference.
func (t *Tiered) Put(page gaddr.Addr, f *frame.Frame) error {
	return t.mem.Put(page, f)
}

// PutBytes stores a copy of data for the page.
func (t *Tiered) PutBytes(page gaddr.Addr, data []byte) error {
	return t.mem.PutBytes(page, data)
}

// Flush forces the page to the persistent tier (used for locally homed
// pages whose directory information must survive restarts, §3.4).
func (t *Tiered) Flush(page gaddr.Addr) error {
	f, ok := t.mem.Get(page)
	if !ok {
		if t.disk.Contains(page) {
			return nil
		}
		return fmt.Errorf("store: flush %v: not resident", page)
	}
	err := t.disk.Put(page, f)
	f.Release()
	return err
}

// FlushAll forces every RAM-resident page to the persistent tier, used
// when a daemon shuts down cleanly so its state survives restart.
func (t *Tiered) FlushAll() error {
	for _, page := range t.mem.Pages() {
		f, ok := t.mem.Get(page)
		if !ok {
			continue
		}
		err := t.disk.Put(page, f)
		f.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the page from both tiers.
func (t *Tiered) Delete(page gaddr.Addr) {
	t.mem.Delete(page)
	t.disk.Delete(page)
}

// Discard removes the page from both tiers unless a lock context has the
// RAM copy pinned, in which case the RAM copy survives (the holder keeps
// its grant-time snapshot) while the disk copy still goes. Invalidation
// uses this so a holder whose context outlives its lock at the home reads
// stale-but-real bytes, never zeros; the directory's invalid mark forces a
// refetch on the next acquire.
func (t *Tiered) Discard(page gaddr.Addr) {
	t.mem.DeleteUnpinned(page)
	t.disk.Delete(page)
}

// Contains reports residency in either tier.
func (t *Tiered) Contains(page gaddr.Addr) bool {
	return t.mem.Contains(page) || t.disk.Contains(page)
}

// Pin protects a page from RAM victimization while locked.
func (t *Tiered) Pin(page gaddr.Addr) bool { return t.mem.Pin(page) }

// Unpin releases a pin.
func (t *Tiered) Unpin(page gaddr.Addr) error { return t.mem.Unpin(page) }

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
