package consistency

import (
	"context"
	"fmt"
	"slices"
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
	// maxReplicateFanout bounds concurrent UpdateBatch RPCs per eventual
	// gossip round.
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
//
// The manager-side global lock of a page homed here is its record's lock
// slot, and the record also keeps the page's committed version chain:
// snapshot reads are granted from it immediately, without waiting on or
// invalidating the writer's exclusive hold.
type CrewCM struct {
	h Host
	// invalFailures counts page invalidations that failed and pruned the
	// sharer — each one is a copy some node may still hold stale.
	invalFailures *telemetry.Counter
	// updateBatchPages observes pages per write-through message.
	updateBatchPages *telemetry.Histogram

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
		invalFailures:    h.Telemetry().Counter(telemetry.MetricCrewInvalidateFailures),
		updateBatchPages: h.Telemetry().Histogram(telemetry.MetricUpdateBatchPages),
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
		granted, err := c.homeAcquireBatch(ctx, desc, pages, func(int) ktypes.LockMode { return mode }, c.h.Self(), nil)
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
	return c.acquireFromHome(ctx, desc, home, pages, mode)
}

// acquireFromHome issues one PageReqBatch covering group to home and
// applies the per-page grants, returning the pages whose locks are now
// held: the granted prefix of group, without a list of its own (including
// pages granted remotely but failing the local store, so the caller's
// rollback frees them at the home).
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
	var firstErr error
	tab := tableOf(c.h, desc)
	for i := range batch.Grants {
		g := &batch.Grants[i]
		page := group[i]
		if !g.OK {
			// The home grants a prefix of the batch and refuses the rest.
			if firstErr == nil {
				firstErr = fmt.Errorf("consistency: crew acquire %v: %s", page, g.Err)
			}
			return group[:i:i], firstErr
		}
		if g.Data != nil {
			f := g.TakeFrame()
			err := c.h.StorePage(tab.Touch(page), f)
			f.Release()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("consistency: crew acquire %v: store: %w", page, err)
				}
				continue
			}
		}
		tab.Update(page, func(e *pagedir.Entry) {
			e.Version = g.Version
			e.Owner = g.Owner
			if mode.Writes() {
				e.State = pagedir.Owned
			} else if e.State != pagedir.Owned {
				e.State = pagedir.Shared
			}
		})
	}
	return group, firstErr
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
// one log append per replica refreshes it, and nobody reads it under a lock
// without a grant — isHome is primary-only and every grant ships the page's
// bytes.
func (c *CrewCM) homeAcquireBatch(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, modeOf func(int) ktypes.LockMode, requester ktypes.NodeID, grants []wire.PageGrantItem) (int, error) {
	tab := tableOf(c.h, desc)
	var inval []sharerInval
	for i, page := range pages {
		mode := modeOf(i)
		var capture, locked bool
		var version uint64
		grant := func(p *pagedir.Page) {
			if locked = locked || p.TryLock(mode); !locked {
				return
			}
			inval = c.homeGrantLocked(desc, p, mode, requester, inval, len(pages)-i)
			version = p.Version
			if grants != nil {
				grants[i] = wire.PageGrantItem{OK: true, Version: p.Version, Owner: p.Owner}
			}
			// A write grant seeds the page's version chain with the
			// committed pre-write copy before the writer can touch it:
			// snapshot reads arriving during the exclusive hold are served
			// from the chain without waiting.
			capture = mode.Writes() && !chainHolds(p.Chain, p.Version)
		}
		tab.With(page, grant)
		if !locked {
			c.invalidateSharers(ctx, tab, requester, inval)
			inval = nil
			if err := tab.Acquire(ctx, page, mode); err != nil {
				return i, fmt.Errorf("%w: %v", ErrConflict, err)
			}
			locked = true
			tab.With(page, grant)
		}
		if capture {
			p := tab.Rec(page)
			f := loadOrZero(c.h, desc, p)
			f.SetVersion(version)
			c.publish(tab, page, f, version)
			f.Release()
		}
	}
	c.invalidateSharers(ctx, tab, requester, inval)
	return len(pages), nil
}

// homeGrantLocked updates the page's directory entry once its global lock
// is held, under the table's mutex, appending the copies a write grant
// revokes to inval (see addInval).
func (c *CrewCM) homeGrantLocked(desc *region.Descriptor, e *pagedir.Page, mode ktypes.LockMode, requester ktypes.NodeID, inval []sharerInval, left int) []sharerInval {
	e.HomedLocal = true
	if !mode.Writes() {
		e.AddSharer(requester)
		if requester == c.h.Self() && e.State == pagedir.Invalid {
			e.State = pagedir.Shared
		}
		return inval
	}
	revoked := func(n ktypes.NodeID) bool { return n != requester && !desc.HasHome(n) }
	for _, n := range e.Copyset {
		if revoked(n) {
			inval = addInval(inval, n, wire.InvalidateItem{Page: e.Page, Version: e.Version}, left)
		}
	}
	// The common grant revokes nothing and stores nothing.
	e.RemoveSharers(revoked)
	e.AddSharer(requester)
	e.Owner = requester
	if requester == c.h.Self() {
		e.State = pagedir.Owned
	} else {
		// The home's own copy goes stale the moment the writer modifies
		// the page.
		e.State = pagedir.Invalid
	}
	return inval
}

// addInval appends item to node's list, which a new sharer sizes for the
// left pages of the batch from this one on; sharers per batch are few.
func addInval(inval []sharerInval, node ktypes.NodeID, item wire.InvalidateItem, left int) []sharerInval {
	for i := range inval {
		if inval[i].node == node {
			inval[i].items = append(inval[i].items, item)
			return inval
		}
	}
	return append(inval, sharerInval{node: node, items: append(make([]wire.InvalidateItem, 0, left), item)})
}

// chainHolds reports whether a version chain already holds version or a
// newer one.
func chainHolds(ch *frame.Chain, version uint64) bool {
	if ch == nil {
		return false
	}
	v, ok := ch.LatestVersion()
	return ok && v >= version
}

// publish appends f (borrowed; the chain takes its own reference) to the
// page's version chain at a fresh epoch, unless the chain already holds
// a version at least as new, and retires unpinned old versions past the
// retention cap. The shared store frame it may be handed is protected
// from a writer's in-place mutation by refcounting: with the chain
// holding a reference, the writer's Exclusive() copy-on-writes instead.
func (c *CrewCM) publish(tab *pagedir.Table, page gaddr.Addr, f *frame.Frame, version uint64) {
	freed, chainLen := 0, 0
	tab.With(page, func(p *pagedir.Page) {
		if chainHolds(p.Chain, version) {
			return
		}
		if p.Chain == nil {
			p.Chain = frame.NewChain()
		}
		freed = p.Chain.Publish(f.Retain(), c.pubEpoch.Add(1))
		chainLen = p.Chain.Len()
	})
	if chainLen > 0 {
		c.snapChainLen.Observe(uint64(chainLen))
	}
	if freed > 0 {
		c.snapReclaimed.Add(uint64(freed))
	}
}

// TrimPublished releases every unpinned non-latest version across all
// chains and returns the number of frames freed. The store's RAM tier
// calls it on eviction pressure, so old versions always give back memory
// before any demand page is victimized.
func (c *CrewCM) TrimPublished() int {
	freed := 0
	for _, t := range c.h.Pages().Tables() {
		t.Each(func(p *pagedir.Page) {
			if p.Chain != nil {
				freed += p.Chain.Trim()
			}
		})
	}
	if freed > 0 {
		c.snapReclaimed.Add(uint64(freed))
	}
	return freed
}

// invalidateSharers sends each former sharer its InvalidateBatch on the
// caller's context. A sharer that fails invalidation may still hold stale
// copies, so it is pruned from every listed page's copyset: homeGrantLocked
// already dropped it, but a concurrent re-add (e.g. a replica push racing
// the fan-out) must not leave an unreachable node listed as a valid copy
// holder. A dead sharer cannot serve stale reads
// either, so the grant proceeds, and each unconfirmed page is counted so
// operators see the stale-copy risk.
func (c *CrewCM) invalidateSharers(ctx context.Context, tab *pagedir.Table, newOwner ktypes.NodeID, inval []sharerInval) {
	if len(inval) == 0 {
		return // the common grant; skip building the escaping closure
	}
	FanOut(inval, maxInvalidateFanout, func(s sharerInval) {
		if _, err := c.h.Request(ctx, s.node, &wire.InvalidateBatch{NewOwner: newOwner, Items: s.items}); err != nil {
			c.invalFailures.Add(uint64(len(s.items)))
			for _, it := range s.items {
				tab.Update(it.Page, func(e *pagedir.Entry) { e.RemoveSharer(s.node) })
			}
		}
	})
}

// ReleaseBatch implements CM: local releases hit the global lock
// table directly, and remote releases for a home travel in one
// ReleaseBatch RPC whose reply carries per-page status, so a single failed
// write-through queues one background retry instead of sinking the batch.
func (c *CrewCM) ReleaseBatch(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, mode ktypes.LockMode, dirty []bool) []error {
	if len(pages) == 0 {
		return nil
	}
	if mode == ktypes.LockWriteShared {
		mode = ktypes.LockWrite
	}
	tab := heldTable(c.h, desc)
	if tab == nil {
		return nil // the region was torn down here during the hold
	}
	if isHome(c.h, desc) {
		var errs []error
		var replicated []gaddr.Addr
		for i, p := range pages {
			if err := c.homeRelease(desc, tab, p, mode, isDirty(dirty, i), c.h.Self(), nil); err != nil {
				if errs == nil {
					errs = make([]error, len(pages))
				}
				errs[i] = err
				continue
			}
			if mode.Writes() && isDirty(dirty, i) {
				// Sized once, at the first dirty page, for the rest.
				replicated = append(slices.Grow(replicated, len(pages)-i), p)
			}
		}
		c.replicate(ctx, desc, tab, replicated)
		return errs
	}
	home, err := homeOf(desc)
	if err != nil {
		return batchErrs(len(pages), err)
	}
	items := make([]wire.ReleaseItem, len(pages))
	var frames []*frame.Frame
	for i, p := range pages {
		items[i] = wire.ReleaseItem{Page: p, Mode: mode, Dirty: isDirty(dirty, i)}
		if mode.Writes() && isDirty(dirty, i) {
			// Frames stay referenced until the request (and its marshal)
			// completes, so the views in Data never dangle.
			f := loadOrZero(c.h, desc, tab.Touch(p))
			items[i].Data = f.Bytes()
			//khazana:frame-owner released after the batch RPC below
			frames = append(slices.Grow(frames, len(pages)-i), f)
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
		if mode.Writes() && isDirty(dirty, i) {
			tab.Update(p, func(e *pagedir.Entry) { e.Version++ })
		}
	}
	return errs
}

// homeRelease applies a release at the manager. A failed write-through is
// reported to the releaser — losing it would silently drop the only
// current copy of the page's contents at the home — but the global lock
// is released regardless so the page does not wedge. The committed
// contents enter the page's version chain in the same step that bumps its
// version and drops the lock: snapshot readers pinned to older epochs
// keep their versions, new snapshots see this one.
func (c *CrewCM) homeRelease(desc *region.Descriptor, tab *pagedir.Table, page gaddr.Addr, mode ktypes.LockMode, dirty bool, from ktypes.NodeID, f *frame.Frame) error {
	var storeErr error
	var committed *frame.Frame
	if mode.Writes() && dirty {
		rec := tab.Touch(page)
		// Write-through: the home stores the new contents so later grants
		// are served locally (and replica maintenance has a current copy).
		// The frame is borrowed from the caller; a home-local writer
		// already stored its contents.
		if f != nil {
			if err := c.h.StorePage(rec, f); err != nil {
				storeErr = fmt.Errorf("consistency: crew write-through %v: %w", page, err)
			}
			committed = f.Retain()
		} else {
			committed = loadOrZero(c.h, desc, rec)
		}
		defer committed.Release()
	}
	self := c.h.Self()
	freed, chainLen := 0, 0
	tab.With(page, func(p *pagedir.Page) {
		if committed != nil && storeErr == nil {
			p.Version++
			p.AddSharer(self)
			// The write-through makes the home's copy current again; the
			// ownership hint returns home with it.
			p.Owner = self
			if from == self {
				p.State = pagedir.Owned
			} else {
				p.State = pagedir.Shared
			}
			committed.SetVersion(p.Version)
			if p.Chain == nil {
				p.Chain = frame.NewChain()
			}
			if !chainHolds(p.Chain, p.Version) {
				freed = p.Chain.Publish(committed.Retain(), c.pubEpoch.Add(1))
				chainLen = p.Chain.Len()
			}
		}
		// Unlock tolerates an unheld lock: after a failover this home may
		// receive a (retried) release for a grant the failed primary
		// issued.
		p.Unlock(mode)
	})
	if chainLen > 0 {
		c.snapChainLen.Observe(uint64(chainLen))
	}
	if freed > 0 {
		c.snapReclaimed.Add(uint64(freed))
	}
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
	tab := tableOf(c.h, desc)
	out := make([]SnapPage, 0, len(pages))
	for _, page := range pages {
		var (
			f       *frame.Frame
			version uint64
		)
		tab.With(page, func(p *pagedir.Page) {
			version = p.Version
			if p.Chain == nil {
				return
			}
			//khazana:frame-owner the pinned version is handed to the SnapshotRead caller
			if cf, _, ok := p.Chain.At(epoch); ok {
				f, version = cf, cf.Version()
			}
		})
		if f == nil {
			//khazana:frame-owner the committed store copy is handed to the SnapshotRead caller
			f = loadOrZero(c.h, desc, tab.Touch(page))
		}
		out = append(out, SnapPage{Page: page, Frame: f, Version: version})
	}
	return out, epoch
}

// replicate makes a release durable and writes it through in one round:
// each secondary home gets one replicated-log append carrying a
// ReplOpRelease entry per released page — version, owner, copyset and
// publish epoch, what a standby that wins the failover election resumes
// from (§3.5) — and the page's bytes, which it stores before it appends.
// Each frame is loaded once and shared by every message. Write grants
// leave homes listed and replica maintenance (§3.5) re-pushes only to
// homes the copyset omits, so a secondary that did not ack leaves the
// copyset; one that acked joins it unless a newer release moved the page.
func (c *CrewCM) replicate(ctx context.Context, desc *region.Descriptor, tab *pagedir.Table, pages []gaddr.Addr) {
	if len(pages) == 0 || len(desc.Home) < 2 {
		return
	}
	self, epoch := c.h.Self(), c.pubEpoch.Load()
	entries := make([]wire.ReplEntry, 0, len(pages))
	items := make([]wire.UpdateItem, 0, len(pages))
	for _, p := range pages {
		f, ok := c.h.LoadPage(tab.Touch(p))
		if !ok {
			continue
		}
		e, _ := tab.Lookup(p)
		entries = append(entries, wire.ReplEntry{Op: wire.ReplOpRelease, Page: p, Val: e.Version, Node: e.Owner, Nodes: e.Copyset, Aux: epoch})
		items = append(items, wire.UpdateItem{Page: p, Version: e.Version, Origin: self})
		items[len(items)-1].SetFrame(f)
		f.Release()
	}
	if len(items) == 0 {
		return
	}
	// ErrNotLeader can surface during a failover race (this node was
	// deposed between the grant and the release); the release itself
	// still completed and the §3.5 background loops re-converge, so the
	// error is not propagated; the copysets still follow who acked.
	acked, err := c.h.Repl().AppendPages(ctx, desc, items, entries...)
	if err == nil {
		for range len(desc.Home) - 1 { // one per message sent
			c.updateBatchPages.Observe(uint64(len(items)))
		}
	}
	for _, it := range items {
		tab.Update(it.Page, func(e *pagedir.Entry) {
			for _, n := range desc.Home {
				switch {
				case n == self:
				case !slices.Contains(acked, n):
					e.RemoveSharer(n)
				case e.Version == it.Version:
					e.AddSharer(n)
				}
			}
		})
	}
}

// Handle implements CM.
func (c *CrewCM) Handle(ctx context.Context, desc *region.Descriptor, from ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	switch msg := m.(type) {
	case *wire.PageReqBatch:
		return c.handlePageReqBatch(ctx, desc, msg)
	case *wire.ReleaseBatch:
		return c.handleReleaseBatch(ctx, desc, msg)
	case *wire.ReplAppend:
		return c.handleReplAppend(desc, from, msg), nil
	case *wire.InvalidateBatch:
		c.handleInvalidateBatch(desc, msg)
		return &wire.Ack{}, nil
	case *wire.SnapshotReqBatch:
		if !isHome(c.h, desc) {
			return nil, ErrNotHome
		}
		snaps, epoch := c.homeSnapshot(desc, msg.Pages, msg.Epoch)
		return snapshotReply(snaps, epoch), nil
	//khazana:wire-default non-CM kinds are unroutable here by design
	default:
		return nil, fmt.Errorf("%w: crew got %T", ErrUnknownMsg, m)
	}
}

// handleInvalidateBatch is the sharer side of a write grant: every listed
// copy is dropped and marked invalid under the new owner.
func (c *CrewCM) handleInvalidateBatch(desc *region.Descriptor, msg *wire.InvalidateBatch) {
	tab := tableOf(c.h, desc)
	for _, it := range msg.Items {
		if p := tab.Rec(it.Page); p != nil {
			c.h.DropPage(p)
		}
		tab.Update(it.Page, func(e *pagedir.Entry) {
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
	granted, err := c.homeAcquireBatch(ctx, desc, msg.Pages, func(i int) ktypes.LockMode { return msg.Modes[i] }, msg.Requester, resp.Grants)
	tab := tableOf(c.h, desc)
	for i, page := range msg.Pages[:granted] {
		f := loadOrZero(c.h, desc, tab.Rec(page))
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
	resp := &wire.ReleaseBatchResp{}
	tab := tableOf(c.h, desc)
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
		err := c.homeRelease(desc, tab, it.Page, mode, it.Dirty, msg.From, f)
		if f != nil {
			f.Release()
		}
		if err != nil {
			if resp.Errs == nil {
				resp.Errs = make([]string, len(msg.Items))
			}
			resp.Errs[i] = err.Error()
			continue
		}
		if mode.Writes() && it.Dirty {
			replicated = append(slices.Grow(replicated, len(msg.Items)-i), it.Page)
		}
	}
	c.replicate(ctx, desc, tab, replicated)
	return resp, nil
}

// handleReplAppend is a secondary home's side of a replicated release:
// the pages are stored first, so the entries naming them are appended —
// and acked — only once their bytes are here. An append from a stale term
// stores nothing, and a failed store NACKs without appending.
func (c *CrewCM) handleReplAppend(desc *region.Descriptor, from ktypes.NodeID, msg *wire.ReplAppend) wire.Msg {
	l := c.h.Repl()
	if _, term := l.Leader(msg.Region); msg.Term < term {
		return l.HandleAppend(msg)
	}
	if err := StoreUpdates(c.h, desc, from, msg.Pages); err != nil {
		return &wire.ReplAck{Term: msg.Term, Err: err.Error()}
	}
	return l.HandleAppend(msg)
}
