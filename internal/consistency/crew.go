package consistency

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/pagedir"
	"khazana/internal/region"
	"khazana/internal/telemetry"
	"khazana/internal/wire"
)

// Fan-out bounds for the batched paths: enough parallelism to hide link
// latency without letting one grant or acquire monopolize the transport.
const (
	// maxInvalidateFanout bounds concurrent InvalidateBatch RPCs (one per
	// sharer) per grant batch.
	maxInvalidateFanout = 8
	// maxReplicateFanout bounds concurrent write-through UpdateBatch RPCs
	// per release.
	maxReplicateFanout = 8
)

// CrewCM implements the Concurrent Read Exclusive Write protocol (paper
// §5: the only consistency model the prototype supports, citing Lamport).
//
// The region's primary home node is the manager for its pages, in the
// style of directory-based software DSM (§3.1 likens the address map to
// DSM directories). Global lock state lives at the home: concurrent read
// locks are granted freely; a write lock waits until all read locks drain,
// invalidates every other copy but the listed homes' replicas, and
// transfers ownership to the writer (Figure 2, step 10). Dirty pages are
// written through to the home at release time, so the home always holds
// current data when granting.
type CrewCM struct {
	h Host
	// glocks is the manager-side global lock table for pages homed here.
	glocks *LockTable
	// invalFailures counts page invalidations that failed and pruned the
	// sharer — each one is a copy some node may still hold stale.
	invalFailures *telemetry.Counter
	// updateBatchPages observes pages per write-through RPC.
	updateBatchPages *telemetry.Histogram

	// pubMu guards published and serializes every version-chain call; it
	// is a leaf lock — nothing is acquired under it — so the store's
	// mutex and the global lock table order freely before it.
	pubMu sync.Mutex
	// published retains the committed version chain of every locally
	// homed page that has seen a write: snapshot reads are granted from
	// here immediately, without waiting on or invalidating the writer's
	// exclusive hold.
	published map[gaddr.Addr]*frame.Chain
	// pubEpoch is the home's publish clock: every committed frame enters
	// its chain at a fresh epoch, and a snapshot pins one epoch as its
	// consistent cut across pages.
	pubEpoch atomic.Uint64

	// snapChainLen observes chain length at publish time; snapReclaimed
	// counts retired old-version frames (publish-time and pressure-time).
	snapChainLen  *telemetry.Histogram
	snapReclaimed *telemetry.Counter
}

// NewCREW creates the CREW consistency manager for a node.
func NewCREW(h Host) *CrewCM {
	return &CrewCM{
		h:                h,
		glocks:           NewLockTable(),
		invalFailures:    h.Telemetry().Counter(telemetry.MetricCrewInvalidateFailures),
		updateBatchPages: h.Telemetry().Histogram(telemetry.MetricUpdateBatchPages),
		published:        make(map[gaddr.Addr]*frame.Chain),
		snapChainLen:     h.Telemetry().Histogram(telemetry.MetricSnapshotChainLen),
		snapReclaimed:    h.Telemetry().Counter(telemetry.MetricSnapshotReclaimed),
	}
}

// InvalidateFailures reports how many page invalidations have failed (and
// pruned their sharer) so far.
func (c *CrewCM) InvalidateFailures() uint64 { return c.invalFailures.Load() }

var _ CM = (*CrewCM)(nil)

// Protocol implements CM.
func (c *CrewCM) Protocol() region.Protocol { return region.CREW }

// PageBusy reports whether the manager-side global lock table holds any
// lock on the page (used to find quiescent points, e.g. before region
// migration).
func (c *CrewCM) PageBusy(page gaddr.Addr) bool { return c.glocks.Held(page) }

// AcquireBatch implements CM. Every acquisition — local or remote — funnels
// through the home's global lock table, which yields CREW's invariant: any
// number of readers or exactly one writer, cluster-wide. Pages homed
// locally take the table directly (the only wire traffic is a write's
// invalidations, one InvalidateBatch per sharer), and remote pages are
// answered by the home in a single PageReqBatch round trip. On
// error the returned slice holds every page whose lock is held and must be
// rolled back by the caller.
func (c *CrewCM) AcquireBatch(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, mode ktypes.LockMode) ([]gaddr.Addr, error) {
	if len(pages) == 0 {
		return nil, nil
	}
	if mode == ktypes.LockWriteShared {
		// CREW has no write-shared notion; treat as exclusive.
		mode = ktypes.LockWrite
	}
	if isHome(c.h, desc) {
		granted, err := c.homeAcquireBatch(ctx, desc, pages, func(int) ktypes.LockMode { return mode }, c.h.Self())
		if err != nil {
			return pages[:granted:granted], err
		}
		return pages, nil
	}
	home, err := homeOf(desc)
	if err != nil {
		return nil, err
	}
	// One PageReqBatch round trip answers every page: each grant holds the
	// page's global lock at the home until the matching release.
	got, err := c.acquireFromHome(ctx, desc, home, pages, mode)
	if err != nil {
		return got, err
	}
	return pages, nil
}

// acquireFromHome issues one PageReqBatch covering group to home and
// applies the per-page grants, returning the pages whose locks are now
// held (including pages granted remotely but failing the local store, so
// the caller's rollback frees them at the home).
func (c *CrewCM) acquireFromHome(ctx context.Context, desc *region.Descriptor, home ktypes.NodeID, group []gaddr.Addr, mode ktypes.LockMode) ([]gaddr.Addr, error) {
	modes := make([]ktypes.LockMode, len(group))
	for i := range modes {
		modes[i] = mode
	}
	resp, err := c.h.Request(ctx, home, &wire.PageReqBatch{Pages: group, Modes: modes, Requester: c.h.Self()})
	if err != nil {
		return nil, fmt.Errorf("consistency: crew acquire batch (%d pages) from %v: %w", len(group), home, err)
	}
	batch, ok := resp.(*wire.PageGrantBatch)
	if !ok {
		return nil, fmt.Errorf("consistency: crew acquire batch: unexpected reply %T", resp)
	}
	if len(batch.Grants) != len(group) {
		return nil, fmt.Errorf("consistency: crew acquire batch: %d grants for %d pages", len(batch.Grants), len(group))
	}
	acquired := make([]gaddr.Addr, 0, len(group))
	var firstErr error
	for i := range batch.Grants {
		g := &batch.Grants[i]
		page := group[i]
		if !g.OK {
			if firstErr == nil {
				firstErr = fmt.Errorf("consistency: crew acquire %v: %s", page, g.Err)
			}
			continue
		}
		acquired = append(acquired, page)
		if g.Data != nil {
			f := g.TakeFrame()
			err := c.h.StorePage(page, f)
			f.Release()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("consistency: crew acquire %v: store: %w", page, err)
				}
				continue
			}
		}
		c.h.Dir().Update(page, func(e *pagedir.Entry) {
			e.Version = g.Version
			e.Owner = g.Owner
			if mode.Writes() {
				e.State = pagedir.Owned
			} else if e.State != pagedir.Owned {
				e.State = pagedir.Shared
			}
		})
	}
	return acquired, firstErr
}

// sharerInval lists the pages one sharer must drop for a grant batch.
type sharerInval struct {
	node  ktypes.NodeID
	items []wire.InvalidateItem
}

// homeAcquireBatch is the manager-side grant path, shared by local clients
// and the PageReqBatch handler. It takes the global table in the caller's
// ascending page order — the order every batch uses, so concurrent batches
// cannot deadlock — stops at the first page it cannot lock, and returns how
// many leading pages it now holds.
//
// The copies a write grant revokes are invalidated with one InvalidateBatch
// per sharer while every granted page's global write lock is held and
// before the grant returns, so no new reader slips in with stale data. They
// are also flushed before waiting on a held page: the wait may outlast ctx,
// and the directory already names the new owner of the pages granted so
// far. A batch that stops early thus returns an invalidated prefix, and the
// caller's rollback only drops locks.
//
// A write grant never revokes the copy of a home listed in desc.Home; only
// region teardown does. That copy is the region's failover copy (§3.5): it
// stays the last committed version through the writer's hold, the release's
// one UpdateBatch per replica refreshes it, and nobody reads it under a lock
// without a grant — isHome is primary-only and every grant ships the page's
// bytes.
func (c *CrewCM) homeAcquireBatch(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, modeOf func(int) ktypes.LockMode, requester ktypes.NodeID) (int, error) {
	var inval []sharerInval
	for i, page := range pages {
		mode := modeOf(i)
		if !c.glocks.TryAcquire(page, mode) {
			c.invalidateSharers(ctx, requester, inval)
			inval = nil
			if err := c.glocks.Acquire(ctx, page, mode); err != nil {
				return i, fmt.Errorf("%w: %v", ErrConflict, err)
			}
		}
		inval = c.homeGrantLocked(desc, page, mode, requester, inval)
	}
	c.invalidateSharers(ctx, requester, inval)
	return len(pages), nil
}

// homeGrantLocked updates directory state after the global lock is held,
// appending the copies a write grant revokes to inval.
func (c *CrewCM) homeGrantLocked(desc *region.Descriptor, page gaddr.Addr, mode ktypes.LockMode, requester ktypes.NodeID, inval []sharerInval) []sharerInval {
	self := c.h.Self()
	c.h.Dir().Update(page, func(e *pagedir.Entry) {
		e.HomedLocal = true
		if mode.Writes() {
			revoked := func(n ktypes.NodeID) bool { return n != requester && !desc.HasHome(n) }
			for _, n := range e.Copyset {
				if revoked(n) {
					inval = addInval(inval, n, wire.InvalidateItem{Page: page, Version: e.Version})
				}
			}
			// The common grant revokes nothing and stores nothing.
			if slices.ContainsFunc(e.Copyset, revoked) {
				e.Copyset = slices.DeleteFunc(slices.Clone(e.Copyset), revoked)
			}
			e.AddSharer(requester)
			e.Owner = requester
			if requester == self {
				e.State = pagedir.Owned
			} else {
				// The home's own copy goes stale the moment the
				// writer modifies the page.
				e.State = pagedir.Invalid
			}
		} else {
			e.AddSharer(requester)
			if requester == self && e.State == pagedir.Invalid {
				e.State = pagedir.Shared
			}
		}
	})
	if mode.Writes() {
		// Seed the page's version chain with the committed pre-write copy
		// before the writer can touch it: snapshot reads arriving during
		// the exclusive hold are served from the chain without waiting.
		c.captureCommitted(desc, page)
	}
	return inval
}

// addInval appends item to node's list; sharers per batch are few.
func addInval(inval []sharerInval, node ktypes.NodeID, item wire.InvalidateItem) []sharerInval {
	for i := range inval {
		if inval[i].node == node {
			inval[i].items = append(inval[i].items, item)
			return inval
		}
	}
	return append(inval, sharerInval{node: node, items: []wire.InvalidateItem{item}})
}

// captureCommitted ensures the page's version chain holds the currently
// committed copy, publishing the store's frame when the chain is absent
// or behind. It runs under the page's global write lock, before the
// writer mutates anything, so the store copy it captures is committed by
// construction. The shared store frame is protected from the writer's
// in-place mutation by refcounting: with the chain holding a reference,
// the writer's Exclusive() copy-on-writes instead.
func (c *CrewCM) captureCommitted(desc *region.Descriptor, page gaddr.Addr) {
	entry, _ := c.h.Dir().Lookup(page)
	c.pubMu.Lock()
	if ch, ok := c.published[page]; ok {
		if v, ok := ch.LatestVersion(); ok && v >= entry.Version {
			c.pubMu.Unlock()
			return
		}
	}
	c.pubMu.Unlock()
	// Load outside pubMu (the store's mutex never nests inside it).
	f := loadOrZero(c.h, desc, page)
	f.SetVersion(entry.Version)
	c.publish(page, f, entry.Version)
	f.Release()
}

// publish appends f (borrowed; the chain takes its own reference) to the
// page's version chain at a fresh epoch, unless the chain already holds
// a version at least as new, and retires unpinned old versions past the
// retention cap.
func (c *CrewCM) publish(page gaddr.Addr, f *frame.Frame, version uint64) {
	c.pubMu.Lock()
	ch, ok := c.published[page]
	if !ok {
		ch = frame.NewChain()
		c.published[page] = ch
	}
	if v, ok := ch.LatestVersion(); ok && v >= version {
		c.pubMu.Unlock()
		return
	}
	freed := ch.Publish(f.Retain(), c.pubEpoch.Add(1))
	chainLen := ch.Len()
	c.pubMu.Unlock()
	c.snapChainLen.Observe(uint64(chainLen))
	if freed > 0 {
		c.snapReclaimed.Add(uint64(freed))
	}
}

// TrimPublished releases every unpinned non-latest version across all
// chains and returns the number of frames freed. The store's RAM tier
// calls it on eviction pressure, so old versions always give back memory
// before any demand page is victimized.
func (c *CrewCM) TrimPublished() int {
	c.pubMu.Lock()
	freed := 0
	for _, ch := range c.published {
		freed += ch.Trim()
	}
	c.pubMu.Unlock()
	if freed > 0 {
		c.snapReclaimed.Add(uint64(freed))
	}
	return freed
}

// ForgetPages drops the published version chains of a freed or destroyed
// region's pages (a snapshot reader keeps the frames it already pinned).
func (c *CrewCM) ForgetPages(pages []gaddr.Addr) {
	c.pubMu.Lock()
	for _, p := range pages {
		if ch, ok := c.published[p]; ok {
			ch.Close()
			delete(c.published, p)
		}
	}
	c.pubMu.Unlock()
}

// PublishedPages reports how many pages currently have a version chain
// (diagnostics and tests).
func (c *CrewCM) PublishedPages() int {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	return len(c.published)
}

// invalidateSharers sends each former sharer its InvalidateBatch on the
// caller's context. A sharer that fails invalidation may still hold stale
// copies, so it is pruned from every listed page's copyset: homeGrantLocked
// already dropped it, but a concurrent re-add (e.g. a replica push racing
// the fan-out) must not leave an unreachable node listed as a valid copy
// holder. A dead sharer cannot serve stale reads
// either, so the grant proceeds, and each unconfirmed page is counted so
// operators see the stale-copy risk.
func (c *CrewCM) invalidateSharers(ctx context.Context, newOwner ktypes.NodeID, inval []sharerInval) {
	if len(inval) == 0 {
		return // the common grant; skip building the escaping closure
	}
	FanOut(inval, maxInvalidateFanout, func(s sharerInval) {
		if _, err := c.h.Request(ctx, s.node, &wire.InvalidateBatch{NewOwner: newOwner, Items: s.items}); err != nil {
			c.invalFailures.Add(uint64(len(s.items)))
			for _, it := range s.items {
				c.h.Dir().Update(it.Page, func(e *pagedir.Entry) { e.RemoveSharer(s.node) })
			}
		}
	})
}

// ReleaseBatch implements CM: local releases hit the global lock
// table directly, and remote releases for a home travel in one
// ReleaseBatch RPC whose reply carries per-page status, so a single failed
// write-through queues one background retry instead of sinking the batch.
func (c *CrewCM) ReleaseBatch(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, mode ktypes.LockMode, dirty map[gaddr.Addr]bool) []error {
	if len(pages) == 0 {
		return nil
	}
	if mode == ktypes.LockWriteShared {
		mode = ktypes.LockWrite
	}
	if isHome(c.h, desc) {
		var errs []error
		var replicated []gaddr.Addr
		for i, p := range pages {
			if err := c.homeRelease(desc, p, mode, dirty[p], c.h.Self(), nil); err != nil {
				if errs == nil {
					errs = make([]error, len(pages))
				}
				errs[i] = err
				continue
			}
			if mode.Writes() && dirty[p] {
				replicated = append(replicated, p)
			}
		}
		c.logReleases(ctx, desc, replicated)
		c.replicate(ctx, desc, replicated)
		return errs
	}
	home, err := homeOf(desc)
	if err != nil {
		return batchErrs(len(pages), err)
	}
	items := make([]wire.ReleaseItem, len(pages))
	var frames []*frame.Frame
	for i, p := range pages {
		items[i] = wire.ReleaseItem{Page: p, Mode: mode, Dirty: dirty[p]}
		if mode.Writes() && dirty[p] {
			// Frames stay referenced until the request (and its marshal)
			// completes, so the views in Data never dangle.
			f := loadOrZero(c.h, desc, p)
			items[i].Data = f.Bytes()
			//khazana:frame-owner released after the batch RPC below
			frames = append(frames, f)
		}
	}
	defer func() {
		for _, f := range frames {
			f.Release()
		}
	}()
	resp, err := c.h.Request(ctx, home, &wire.ReleaseBatch{From: c.h.Self(), Items: items})
	if err != nil {
		return batchErrs(len(pages), fmt.Errorf("consistency: crew release batch (%d pages) to %v: %w", len(pages), home, err))
	}
	rb, ok := resp.(*wire.ReleaseBatchResp)
	if !ok {
		return batchErrs(len(pages), fmt.Errorf("consistency: crew release batch: unexpected reply %T", resp))
	}
	// The error slice is built only when a page failed, which almost no
	// release does.
	var errs []error
	for i, p := range pages {
		if i < len(rb.Errs) && rb.Errs[i] != "" {
			if errs == nil {
				errs = make([]error, len(pages))
			}
			errs[i] = fmt.Errorf("consistency: crew release %v to %v: %s", p, home, rb.Errs[i])
			continue
		}
		if mode.Writes() && dirty[p] {
			c.h.Dir().Update(p, func(e *pagedir.Entry) { e.Version++ })
		}
	}
	return errs
}

// homeRelease applies a release at the manager. A failed write-through is
// reported to the releaser — losing it would silently drop the only
// current copy of the page's contents at the home — but the global lock
// is released regardless so the page does not wedge.
func (c *CrewCM) homeRelease(desc *region.Descriptor, page gaddr.Addr, mode ktypes.LockMode, dirty bool, from ktypes.NodeID, f *frame.Frame) error {
	var storeErr error
	if mode.Writes() && dirty {
		// Write-through: the home stores the new contents so later
		// grants are served locally (and replica maintenance has a
		// current copy). The frame is borrowed from the caller.
		if f != nil {
			if err := c.h.StorePage(page, f); err != nil {
				storeErr = fmt.Errorf("consistency: crew write-through %v: %w", page, err)
			}
		}
		if storeErr == nil {
			self := c.h.Self()
			var newVersion uint64
			c.h.Dir().Update(page, func(e *pagedir.Entry) {
				e.Version++
				newVersion = e.Version
				e.AddSharer(self)
				// The write-through makes the home's copy current again;
				// the ownership hint returns home with it.
				e.Owner = self
				if from == self {
					e.State = pagedir.Owned
				} else {
					e.State = pagedir.Shared
				}
			})
			// Publish the committed contents into the page's version
			// chain: snapshot readers pinned to older epochs keep their
			// versions, new snapshots see this one.
			if f != nil {
				f.SetVersion(newVersion)
				c.publish(page, f, newVersion)
			} else {
				// Home-local release: the writer already stored the new
				// contents locally.
				nf := loadOrZero(c.h, desc, page)
				nf.SetVersion(newVersion)
				c.publish(page, nf, newVersion)
				nf.Release()
			}
		}
	}
	// TryRelease: after a failover this home may receive a (retried)
	// release for a grant the failed primary issued; tolerate it.
	c.glocks.TryRelease(page, mode)
	return storeErr
}

// SnapshotRead implements CM: committed copies without locks. At the
// home it serves straight from the version chains; remotely it asks the
// home in one SnapshotReqBatch round trip.
func (c *CrewCM) SnapshotRead(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, epoch uint64) ([]SnapPage, uint64, error) {
	if isHome(c.h, desc) {
		snaps, at := c.homeSnapshot(desc, pages, epoch)
		return snaps, at, nil
	}
	home, err := homeOf(desc)
	if err != nil {
		return nil, 0, err
	}
	return snapshotFromHome(ctx, c.h, desc, home, pages, epoch)
}

// homeSnapshot serves a snapshot read at the manager. epoch 0 cuts at
// the current publish epoch; the chosen cut is returned so a snapshot
// context can pin it for later requests. Readers never touch the global
// lock table, never join a copyset, and never trigger invalidation: a
// page under a writer's exclusive hold serves its last committed version
// from the chain (seeded by captureCommitted at grant time). Pages that
// have never seen a write fall back to the store copy, committed by
// construction. The caller owns every returned frame.
func (c *CrewCM) homeSnapshot(desc *region.Descriptor, pages []gaddr.Addr, epoch uint64) ([]SnapPage, uint64) {
	if epoch == 0 {
		epoch = c.pubEpoch.Load()
	}
	out := make([]SnapPage, 0, len(pages))
	for _, p := range pages {
		var (
			f       *frame.Frame
			version uint64
		)
		c.pubMu.Lock()
		if ch, ok := c.published[p]; ok {
			//khazana:frame-owner the pinned version is handed to the SnapshotRead caller
			if cf, _, ok := ch.At(epoch); ok {
				f = cf
				version = cf.Version()
			}
		}
		c.pubMu.Unlock()
		if f == nil {
			//khazana:frame-owner the committed store copy is handed to the SnapshotRead caller
			f = loadOrZero(c.h, desc, p)
			entry, _ := c.h.Dir().Lookup(p)
			version = entry.Version
		}
		out = append(out, SnapPage{Page: p, Frame: f, Version: version})
	}
	return out, epoch
}

// logReleases appends one ReplOpRelease delta per released dirty page to
// the region's replicated metadata log before the release is acked, so a
// standby that wins the failover election already knows each page's
// committed version, owner, copyset, and publish epoch — closing the
// §3.5 lost-release window for the common home-crash case. Only metadata
// rides the log; page contents still travel the replicate() write-through
// (one UpdateBatch RPC per replica, the E16 invariant). A disabled log or
// a single-home region is a no-op.
func (c *CrewCM) logReleases(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr) {
	l := c.h.Repl()
	if l == nil || len(pages) == 0 || len(desc.Home) < 2 {
		return
	}
	epoch := c.pubEpoch.Load()
	entries := make([]wire.ReplEntry, 0, len(pages))
	for _, p := range pages {
		entry, _ := c.h.Dir().Lookup(p)
		entries = append(entries, wire.ReplEntry{
			Op:    wire.ReplOpRelease,
			Page:  p,
			Val:   entry.Version,
			Node:  entry.Owner,
			Nodes: entry.Copyset,
			Aux:   epoch,
		})
	}
	// ErrNotLeader can surface during a failover race (this node was
	// deposed between the grant and the release); the release itself
	// still completed and the §3.5 background loops re-converge the
	// metadata, so the error is not propagated to the releaser.
	_ = l.Append(ctx, desc, entries...)
}

// replicate writes released dirty pages through to the region's secondary
// homes: one UpdateBatch per replica covering every page of the release.
// Each page's frame is loaded once and shared across the fan-out (every
// SetFrame takes its own reference). Replication is best-effort — the
// background replica maintenance loop (§3.5) re-pushes pages a secondary
// missed. That loop skips copyset members, and write grants leave homes
// listed, so a secondary that did not store a page leaves the copyset here.
func (c *CrewCM) replicate(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr) {
	if len(pages) == 0 || len(desc.Home) < 2 {
		return
	}
	self := c.h.Self()
	type pageData struct {
		page    gaddr.Addr
		f       *frame.Frame
		version uint64
	}
	data := make([]pageData, 0, len(pages))
	for _, p := range pages {
		//khazana:frame-owner released after the replication fan-out below
		f, ok := c.h.LoadPage(p)
		if !ok {
			continue
		}
		entry, _ := c.h.Dir().Lookup(p)
		data = append(data, pageData{page: p, f: f, version: entry.Version})
	}
	if len(data) == 0 {
		return
	}
	var targets []ktypes.NodeID
	for _, n := range desc.Home {
		if n != self {
			targets = append(targets, n)
		}
	}
	FanOut(targets, maxReplicateFanout, func(n ktypes.NodeID) {
		batch := &wire.UpdateBatch{From: self, Items: make([]wire.UpdateItem, len(data))}
		for i, pd := range data {
			batch.Items[i] = wire.UpdateItem{Page: pd.page, Version: pd.version, Origin: self}
			batch.Items[i].SetFrame(pd.f)
		}
		c.updateBatchPages.Observe(uint64(len(data)))
		resp, err := c.h.Request(ctx, n, batch)
		batch.ReleaseFrames()
		r, _ := resp.(*wire.UpdateBatchResp)
		for i, pd := range data {
			stored := err == nil && r != nil && i < len(r.Errs) && r.Errs[i] == ""
			c.h.Dir().Update(pd.page, func(e *pagedir.Entry) {
				if !stored {
					e.RemoveSharer(n)
				} else if e.Version == pd.version {
					// A newer release's write-through decides n's listing.
					e.AddSharer(n)
				}
			})
		}
	})
	for _, pd := range data {
		pd.f.Release()
	}
}

// Handle implements CM.
func (c *CrewCM) Handle(ctx context.Context, desc *region.Descriptor, from ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	switch msg := m.(type) {
	case *wire.PageReqBatch:
		return c.handlePageReqBatch(ctx, desc, msg)
	case *wire.ReleaseBatch:
		return c.handleReleaseBatch(ctx, desc, msg)
	case *wire.UpdateBatch:
		return c.handleUpdateBatch(desc, from, msg)
	case *wire.InvalidateBatch:
		c.handleInvalidateBatch(msg)
		return &wire.Ack{}, nil
	case *wire.SnapshotReqBatch:
		if !isHome(c.h, desc) {
			return nil, ErrNotHome
		}
		snaps, epoch := c.homeSnapshot(desc, msg.Pages, msg.Epoch)
		return snapshotReply(snaps, epoch), nil
	case *wire.PageFetch:
		return handlePageFetch(c.h, msg), nil
	//khazana:wire-default non-CM kinds are unroutable here by design
	default:
		return nil, fmt.Errorf("%w: crew got %T", ErrUnknownMsg, m)
	}
}

// handleInvalidateBatch is the sharer side of a write grant: every listed
// copy is dropped and marked invalid under the new owner.
func (c *CrewCM) handleInvalidateBatch(msg *wire.InvalidateBatch) {
	for _, it := range msg.Items {
		c.h.DropPage(it.Page)
		c.h.Dir().Update(it.Page, func(e *pagedir.Entry) {
			e.State = pagedir.Invalid
			e.Owner = msg.NewOwner
		})
	}
}

// handlePageReqBatch is the manager side of AcquireBatch: every page of
// the request is answered in one reply with per-page status. Grants stop
// at the first failure — the requester will roll the batch back anyway, so
// acquiring the remaining locks would only be churn.
func (c *CrewCM) handlePageReqBatch(ctx context.Context, desc *region.Descriptor, msg *wire.PageReqBatch) (wire.Msg, error) {
	resp := &wire.PageGrantBatch{Grants: make([]wire.PageGrantItem, len(msg.Pages))}
	if len(msg.Modes) != len(msg.Pages) {
		return nil, fmt.Errorf("consistency: crew batch: %d pages with %d modes", len(msg.Pages), len(msg.Modes))
	}
	if !isHome(c.h, desc) {
		// Stale descriptor at the requester (§3.2): tell it so it can
		// fall back to a fresh lookup.
		for i := range resp.Grants {
			resp.Grants[i] = wire.PageGrantItem{Err: ErrNotHome.Error()}
		}
		return resp, nil
	}
	for i, mode := range msg.Modes {
		if !mode.Valid() {
			// The mode bytes come off the wire unchecked: refuse the batch
			// before any page's lock is touched.
			for j := range resp.Grants {
				resp.Grants[j].Err = "not attempted: invalid lock mode in batch"
			}
			resp.Grants[i].Err = fmt.Sprintf("consistency: invalid lock mode %d", mode)
			return resp, nil
		}
		if mode == ktypes.LockWriteShared {
			msg.Modes[i] = ktypes.LockWrite
		}
	}
	granted, err := c.homeAcquireBatch(ctx, desc, msg.Pages, func(i int) ktypes.LockMode { return msg.Modes[i] }, msg.Requester)
	for i, page := range msg.Pages[:granted] {
		entry, _ := c.h.Dir().Lookup(page)
		resp.Grants[i] = wire.PageGrantItem{
			OK:      true,
			Version: entry.Version,
			Owner:   entry.Owner,
		}
		f := loadOrZero(c.h, desc, page)
		resp.Grants[i].SetFrame(f)
		f.Release()
	}
	if err != nil {
		for i := granted; i < len(resp.Grants); i++ {
			resp.Grants[i].Err = "not attempted: earlier page in batch failed"
		}
		resp.Grants[granted].Err = err.Error()
	}
	return resp, nil
}

// handleReleaseBatch applies a batch of releases at the manager,
// reporting per-item status so the releaser retries only the pages whose
// write-through failed (§3.5), then writes the batch's dirty pages
// through to the region's secondary homes in one RPC per replica.
func (c *CrewCM) handleReleaseBatch(ctx context.Context, desc *region.Descriptor, msg *wire.ReleaseBatch) (wire.Msg, error) {
	if !isHome(c.h, desc) {
		return nil, ErrNotHome
	}
	resp := &wire.ReleaseBatchResp{Errs: make([]string, len(msg.Items))}
	var replicated []gaddr.Addr
	for i := range msg.Items {
		it := &msg.Items[i]
		mode := it.Mode
		if mode == ktypes.LockWriteShared {
			mode = ktypes.LockWrite
		}
		var f *frame.Frame
		if it.Data != nil {
			f = it.TakeFrame()
		}
		err := c.homeRelease(desc, it.Page, mode, it.Dirty, msg.From, f)
		if f != nil {
			f.Release()
		}
		if err != nil {
			resp.Errs[i] = err.Error()
			continue
		}
		if mode.Writes() && it.Dirty {
			replicated = append(replicated, it.Page)
		}
	}
	c.logReleases(ctx, desc, replicated)
	c.replicate(ctx, desc, replicated)
	return resp, nil
}

// handleUpdateBatch applies a batched write-through at a secondary home:
// every page is stored and its directory entry refreshed when the pushed
// version is at least as new as the local one, mirroring the per-page
// ReplicaPut semantics.
func (c *CrewCM) handleUpdateBatch(desc *region.Descriptor, from ktypes.NodeID, msg *wire.UpdateBatch) (wire.Msg, error) {
	_ = desc
	self := c.h.Self()
	resp := &wire.UpdateBatchResp{
		Errs:     make([]string, len(msg.Items)),
		Versions: make([]uint64, len(msg.Items)),
	}
	for i := range msg.Items {
		it := &msg.Items[i]
		f := it.TakeFrame()
		if f == nil {
			resp.Errs[i] = "update without contents"
			continue
		}
		err := c.h.StorePage(it.Page, f)
		f.Release()
		if err != nil {
			resp.Errs[i] = err.Error()
			continue
		}
		c.h.Dir().Update(it.Page, func(e *pagedir.Entry) {
			if it.Version >= e.Version {
				e.Version = it.Version
				if e.State != pagedir.Owned {
					e.State = pagedir.Shared
				}
			}
			e.AddSharer(self)
			e.AddSharer(from)
		})
		resp.Versions[i] = it.Version
	}
	return resp, nil
}

// handlePageFetch serves a copy of a locally resident page; it is shared
// by all protocols (Figure 2 steps 7-9: the daemon supplies a copy out of
// local storage).
func handlePageFetch(h Host, msg *wire.PageFetch) wire.Msg {
	f, ok := h.LoadPage(msg.Page)
	if !ok {
		return &wire.PageData{Found: false}
	}
	entry, _ := h.Dir().Lookup(msg.Page)
	pd := &wire.PageData{Found: true, Version: entry.Version}
	pd.SetFrame(f)
	f.Release()
	return pd
}
