package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/security"
)

// ErrSnapshotClosed reports use of a closed snapshot context.
var ErrSnapshotClosed = errors.New("core: snapshot context closed")

// SnapshotContext is a read-only view of the global store that never
// blocks on writers. Where a lock context funnels through the home's
// global lock table — waiting out any exclusive writer — a snapshot
// context is served from each page's committed version chain: the first
// read pins a publish epoch at the page's home, and every subsequent read
// observes the newest version committed at or before that cut. Writers
// neither wait for snapshot readers nor invalidate them.
//
// The isolation guarantee is per home: pages homed on one node form a
// consistent cut of that home's publish order. If an old version is
// reclaimed under memory pressure, a later read of that page observes a
// newer committed version instead — still committed-only and monotonic,
// never torn or uncommitted.
//
// A SnapshotContext is safe for concurrent use. Close releases every
// pinned frame; views returned by View are invalid after Close.
type SnapshotContext struct {
	node      *Node
	principal ktypes.Principal

	mu sync.Mutex
	// epochs pins one publish epoch per home node, chosen by the home on
	// the first read it serves for this context.
	epochs map[ktypes.NodeID]uint64
	// pages maps each fetched page to its pinned frame; one reference
	// per entry, released at Close.
	pages map[gaddr.Addr]snapEntry
	// lastDesc caches the most recently resolved descriptor so repeated
	// reads in one region skip the lookup path entirely.
	lastDesc *region.Descriptor
	// reads batches the snapshot-read metric: incremented under mu on
	// the zero-copy fast path and flushed to the registry counter once
	// at Close, so the hot path carries no atomic.
	reads  uint64
	closed bool
}

// snapEntry is one pinned page of a snapshot context.
type snapEntry struct {
	f       *frame.Frame
	version uint64
}

// Snapshot opens a snapshot context for the principal. Opening is free —
// no epoch is pinned and no pages are fetched until the first read.
func (n *Node) Snapshot(principal ktypes.Principal) *SnapshotContext {
	return &SnapshotContext{
		node:      n,
		principal: principal,
		epochs:    make(map[ktypes.NodeID]uint64),
		pages:     make(map[gaddr.Addr]snapEntry),
	}
}

// View returns count bytes at addr as a view aliasing the pinned page
// frame — no copy is made. The view stays valid until Close and must be
// treated as read-only. Requests that span a page boundary fall back to
// the copying path, since pinned frames are page-granular.
func (c *SnapshotContext) View(ctx context.Context, addr gaddr.Addr, count uint64) ([]byte, error) {
	if count == 0 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrSnapshotClosed
	}
	// Fast path: the backing page is already pinned and the request stays
	// inside it — serve the bytes with no lookup, no RPC, no allocation.
	if d := c.lastDesc; d != nil && d.Range.ContainsRange(gaddr.Range{Start: addr, Size: count}) {
		ps := uint64(d.Attrs.PageSize)
		pageOff := addr.Offset(ps)
		if pageOff+count <= ps {
			if e, ok := c.pages[addr.AlignDown(ps)]; ok {
				c.reads++
				return e.f.Bytes()[pageOff : pageOff+count : pageOff+count], nil
			}
		}
	}
	//khazana:block-ok c.mu is per snapshot context; a pin fault under it stalls only this context's own callers and never waits on a writer's lock
	desc, err := c.ensureLocked(ctx, addr, count)
	if err != nil {
		return nil, err
	}
	ps := uint64(desc.Attrs.PageSize)
	pageOff := addr.Offset(ps)
	if pageOff+count > ps {
		return c.readLocked(desc, addr, count), nil
	}
	c.reads++
	e := c.pages[addr.AlignDown(ps)]
	return e.f.Bytes()[pageOff : pageOff+count : pageOff+count], nil
}

// Read copies count bytes starting at addr out of the snapshot into a
// fresh buffer. The result stays valid after Close.
func (c *SnapshotContext) Read(ctx context.Context, addr gaddr.Addr, count uint64) ([]byte, error) {
	if count == 0 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrSnapshotClosed
	}
	//khazana:block-ok c.mu is per snapshot context; a pin fault under it stalls only this context's own callers and never waits on a writer's lock
	desc, err := c.ensureLocked(ctx, addr, count)
	if err != nil {
		return nil, err
	}
	return c.readLocked(desc, addr, count), nil
}

// PageVersion reports the committed version this snapshot pinned for the
// page containing addr, and whether the page has been read yet.
func (c *SnapshotContext) PageVersion(addr gaddr.Addr) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.lastDesc
	if d == nil || !d.Range.Contains(addr) {
		return 0, false
	}
	e, ok := c.pages[addr.AlignDown(uint64(d.Attrs.PageSize))]
	if !ok {
		return 0, false
	}
	return e.version, true
}

// Close releases every pinned frame and flushes the read counter. Views
// handed out by View are invalid once Close returns.
func (c *SnapshotContext) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	pages := c.pages
	c.pages = nil
	reads := c.reads
	c.reads = 0
	c.lastDesc = nil
	c.mu.Unlock()
	if reads > 0 {
		c.node.mSnapReads.Add(reads)
	}
	for _, e := range pages {
		e.f.Release()
	}
}

// ensureLocked resolves the region and pins every page backing
// [addr, addr+count) that is not pinned yet, fetching them from the CM's
// snapshot path at this context's epoch. Caller holds c.mu.
func (c *SnapshotContext) ensureLocked(ctx context.Context, addr gaddr.Addr, count uint64) (*region.Descriptor, error) {
	desc := c.lastDesc
	if desc == nil || !desc.Range.ContainsRange(gaddr.Range{Start: addr, Size: count}) {
		d, err := c.node.lookupRegion(ctx, addr)
		if err != nil {
			return nil, err
		}
		if !d.Range.ContainsRange(gaddr.Range{Start: addr, Size: count}) {
			return nil, fmt.Errorf("core: snapshot read %v+%d escapes region %v", addr, count, d.Range)
		}
		if err := d.Attrs.ACL.Check(c.principal, security.PermRead); err != nil {
			return nil, err
		}
		if d, err = c.node.allocatedDesc(ctx, d); err != nil {
			return nil, err
		}
		c.lastDesc = d
		desc = d
	}
	ps := uint64(desc.Attrs.PageSize)
	var missing []gaddr.Addr
	for covered := uint64(0); covered < count; {
		cur := addr.MustAdd(covered)
		page := cur.AlignDown(ps)
		pageOff := cur.Offset(ps)
		chunk := ps - pageOff
		if chunk > count-covered {
			chunk = count - covered
		}
		if _, ok := c.pages[page]; !ok {
			missing = append(missing, page)
		}
		covered += chunk
	}
	if len(missing) == 0 {
		return desc, nil
	}
	cm, err := c.node.cmFor(desc)
	if err != nil {
		return nil, err
	}
	home, err := desc.PrimaryHome()
	if err != nil {
		return nil, err
	}
	snaps, at, err := cm.SnapshotRead(ctx, desc, missing, c.epochs[home])
	if err != nil {
		return nil, err
	}
	if c.epochs[home] == 0 {
		c.epochs[home] = at
	}
	for _, sp := range snaps {
		//khazana:frame-owner pinned in the snapshot context, released at Close
		c.pages[sp.Page] = snapEntry{f: sp.Frame, version: sp.Version}
	}
	return desc, nil
}

// readLocked copies count bytes at addr out of the pinned pages. Caller
// holds c.mu and has ensured every covered page.
func (c *SnapshotContext) readLocked(desc *region.Descriptor, addr gaddr.Addr, count uint64) []byte {
	out := make([]byte, count)
	ps := uint64(desc.Attrs.PageSize)
	for covered := uint64(0); covered < count; {
		cur := addr.MustAdd(covered)
		page := cur.AlignDown(ps)
		pageOff := cur.Offset(ps)
		chunk := ps - pageOff
		if chunk > count-covered {
			chunk = count - covered
		}
		if e, ok := c.pages[page]; ok {
			copy(out[covered:covered+chunk], e.f.Bytes()[pageOff:])
		}
		covered += chunk
	}
	return out
}
