package consistency

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/pagedir"
	"khazana/internal/region"
	"khazana/internal/telemetry"
	"khazana/internal/wire"
)

// Fan-out bounds for the batched paths: enough parallelism to hide link
// latency without letting one grant or release monopolize the transport.
const (
	// maxInvalidateFanout bounds concurrent InvalidateBatch RPCs (one per
	// sharer) per grant batch.
	maxInvalidateFanout = 8
	// maxReplicateFanout bounds concurrent UpdateBatch RPCs per eventual
	// gossip round.
	maxReplicateFanout = 8
)

// policy is what one protocol contributes to the engine; DESIGN.md §5
// tabulates it.
type policy struct {
	proto region.Protocol
	// homeLock puts a page's lock at its home (CREW): a write grant
	// revokes every copy but the homes', and a release writes through to
	// the version chain and the replicated log. Otherwise the lock is
	// local, a grant revokes nothing, and a release pushes home.
	homeLock bool
	// lww applies pushes by last writer wins (eventual), parking those
	// that meet a local write lock, with the home gossiping what it
	// accepts; an acquire asks only about pages with no local copy, and
	// any replica serves a snapshot. Otherwise a push bumps the home's
	// version, and the home serves snapshots.
	lww bool
}

// Engine is the consistency engine every built-in protocol runs on
// (paper §3.3's consistency managers), told apart by its policy. The
// region's primary home manages its pages, in the style of
// directory-based software DSM (§3.1). An acquire elsewhere is one
// PageReqBatch to the home carrying Have, the version of each copy held
// here, and a current copy comes back with no bytes. Under CREW a write
// grant waits until readers drain, invalidates the other copies and
// transfers ownership to the writer (Figure 2, step 10). Each page's
// state is its record in the region's page table.
type Engine struct {
	h Host
	p policy
	// invalFailures counts page invalidations that failed and pruned the
	// sharer — each one is a copy some node may still hold stale.
	invalFailures *telemetry.Counter
	// grantCurrent counts grant pages that shipped no bytes (Current).
	grantCurrent *telemetry.Counter
	// oneWayFailed counts pages of one-way releases that failed here;
	// no reply carries them back to be retried.
	oneWayFailed *telemetry.Counter
	// unlogged counts replicated releases whose log append failed.
	unlogged *telemetry.Counter
	// updateBatchPages observes pages per write-through message.
	updateBatchPages *telemetry.Histogram
	// pushFailures counts eventual updates a gossip round failed to
	// deliver; applyFailures counts eventual updates that failed to
	// install. Each is a replica left a version behind.
	pushFailures, applyFailures *telemetry.Counter
	// snapChainLen observes chain length at publish time; snapReclaimed
	// counts retired old-version frames (publish-time and pressure-time).
	snapChainLen  *telemetry.Histogram
	snapReclaimed *telemetry.Counter
}

func newEngine(h Host, p policy) *Engine {
	tel := h.Telemetry()
	return &Engine{
		h:                h,
		p:                p,
		invalFailures:    tel.Counter(telemetry.MetricCrewInvalidateFailures),
		grantCurrent:     tel.Counter(telemetry.MetricGrantPagesCurrent),
		oneWayFailed:     tel.Counter(telemetry.MetricReleaseOneWayFailed),
		unlogged:         tel.Counter(telemetry.MetricReleaseUnlogged),
		updateBatchPages: tel.Histogram(telemetry.MetricUpdateBatchPages),
		pushFailures:     tel.Counter(telemetry.MetricEventualPushFailures),
		applyFailures:    tel.Counter(telemetry.MetricEventualApplyFailures),
		snapChainLen:     tel.Histogram(telemetry.MetricSnapshotChainLen),
		snapReclaimed:    tel.Counter(telemetry.MetricSnapshotReclaimed),
	}
}

// NewCREW creates the Concurrent Read Exclusive Write engine (paper §5:
// the only consistency model the prototype supports, citing Lamport).
func NewCREW(h Host) *Engine {
	return newEngine(h, policy{proto: region.CREW, homeLock: true})
}

// NewRelease creates the release-consistency engine (§3.3, used for the
// address map tree nodes): writes reach the home when the write lock is
// released, and an acquire validates the copy against the home, so it
// observes every write whose release completed before it.
func NewRelease(h Host) *Engine { return newEngine(h, policy{proto: region.Release}) }

// NewEventual creates the engine for clients that "can tolerate data that
// is temporarily out-of-date" (§3.3): replicas serve reads and writes
// locally and converge on the last writer's copy, ordered by page version
// and then writer.
func NewEventual(h Host) *Engine { return newEngine(h, policy{proto: region.Eventual, lww: true}) }

var _ CM = (*Engine)(nil)

// Protocol implements CM.
func (c *Engine) Protocol() region.Protocol { return c.p.proto }

// InvalidateFailures reports how many page invalidations have failed (and
// pruned their sharer) so far.
func (c *Engine) InvalidateFailures() uint64 { return c.invalFailures.Load() }

// mode maps a requested mode onto the protocol's: CREW has no
// write-shared notion and treats it as exclusive.
func (c *Engine) mode(m ktypes.LockMode) ktypes.LockMode {
	if c.p.homeLock && m == ktypes.LockWriteShared {
		return ktypes.LockWrite
	}
	return m
}

// current is each protocol's rule for a grant that ships no bytes: have
// (a held version plus one, 0 for none) names the home's version v, or
// under a local lock any version no older.
func (c *Engine) current(have []uint64, i int, v uint64) bool {
	return have != nil && (have[i] == v+1 || !c.p.homeLock && have[i] > v)
}

// AcquireBatch implements CM. Under CREW every acquisition funnels through
// the home's global lock table, which yields CREW's invariant: any number
// of readers or exactly one writer, cluster-wide. Under a local lock the
// pages are locked here first and then brought up to the protocol's
// standard with the same one round trip. On error the returned slice
// holds every page whose lock is held and must be rolled back.
func (c *Engine) AcquireBatch(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, mode ktypes.LockMode) ([]gaddr.Addr, error) {
	if len(pages) == 0 {
		return nil, nil
	}
	mode = c.mode(mode)
	tab := tableOf(c.h, desc)
	home := isHome(c.h, desc)
	if c.p.homeLock {
		if home {
			granted, err := c.homeAcquireBatch(ctx, desc, tab, pages, func(int) ktypes.LockMode { return mode }, c.h.Self(), nil, nil)
			return pages[:granted:granted], err
		}
		return c.acquireFromHome(ctx, desc, tab, pages, mode)
	}
	for i, p := range pages {
		if err := tab.Acquire(ctx, p, mode); err != nil {
			return pages[:i:i], fmt.Errorf("%w: %v", ErrConflict, err)
		}
	}
	if home {
		for _, p := range pages {
			tab.Update(p, func(e *pagedir.Entry) {
				e.HomedLocal = true
				if e.State == pagedir.Invalid {
					e.State = pagedir.Shared
				}
			})
		}
		return pages, nil
	}
	if _, err := c.acquireFromHome(ctx, desc, tab, pages, mode); err != nil {
		for _, p := range pages {
			tab.Release(p, mode)
		}
		return nil, err
	}
	return pages, nil
}

// sameModes holds read-only runs of each mode for a request's Modes.
var sameModes = func() (m [ktypes.LockWriteShared + 1][64]ktypes.LockMode) {
	for mode := range m {
		for i := range m[mode] {
			m[mode][i] = ktypes.LockMode(mode)
		}
	}
	return m
}()

// acquireFromHome issues one PageReqBatch to the region's home and
// installs the per-page grants, returning the pages whose grants are
// applied: the granted prefix of the request, without a list of its own
// (including pages granted but failing the local store, so a CREW
// rollback frees them at the home). The request covers every page, or
// under last writer wins only the pages with no local copy (none: no
// request). A valid copy held here is advertised in Have, its version
// read before its frame is taken (the bytes are never older), and the
// frame is held until a Current grant stores it back, past any racing
// eviction or invalidation.
func (c *Engine) acquireFromHome(ctx context.Context, desc *region.Descriptor, tab *pagedir.Table, pages []gaddr.Addr, mode ktypes.LockMode) ([]gaddr.Addr, error) {
	home, err := homeOf(desc)
	if err != nil {
		return nil, err
	}
	group := pages
	var heldBuf [16]*frame.Frame
	held, have := heldBuf[:0], []uint64(nil)
	if c.p.lww {
		group = nil
		for _, p := range pages {
			if f, ok := c.h.LoadPage(tab.Touch(p)); ok {
				f.Release()
			} else {
				group = append(group, p)
			}
		}
		if group == nil {
			return pages, nil
		}
	} else {
		for i, page := range group {
			if e, ok := tab.Lookup(page); ok && e.State != pagedir.Invalid {
				if f, ok := c.h.LoadPage(tab.Rec(page)); ok {
					if have == nil {
						have, held = make([]uint64, len(group)), append(held, make([]*frame.Frame, len(group))...)
					}
					have[i], held[i] = e.Version+1, f
				}
			}
		}
	}
	defer func() {
		for _, f := range held {
			if f != nil {
				f.Release()
			}
		}
	}()
	modes := sameModes[mode][:]
	for len(modes) < len(group) {
		modes = append(modes, modes...)
	}
	modes = modes[:len(group):len(group)]
	resp, err := c.h.Request(ctx, home, &wire.PageReqBatch{Pages: group, Modes: modes, Requester: c.h.Self(), Have: have})
	batch, ok := resp.(*wire.PageGrantBatch)
	if err == nil && (!ok || len(batch.Grants) != len(group)) {
		err = fmt.Errorf("unexpected reply %T", resp)
	}
	if err != nil {
		return nil, fmt.Errorf("consistency: acquire batch (%d pages) from %v: %w", len(group), home, err)
	}
	var firstErr error
	for i := range batch.Grants {
		g := &batch.Grants[i]
		page := group[i]
		if !g.OK {
			// The home grants a prefix of the batch and refuses the rest.
			return group[:i:i], cmp.Or(firstErr, fmt.Errorf("consistency: acquire %v: %s", page, g.Err))
		}
		var f *frame.Frame
		switch {
		case !g.Current:
			f = g.TakeFrame()
		case c.current(have, i, g.Version):
			f = held[i].Retain()
		default:
			firstErr = cmp.Or(firstErr, fmt.Errorf("consistency: acquire %v: current at version %d, not the copy held", page, g.Version))
			continue
		}
		if err := c.install(desc, tab, page, f, g, mode); err != nil {
			firstErr = cmp.Or(firstErr, fmt.Errorf("consistency: acquire %v: store: %w", page, err))
		}
	}
	return group, firstErr
}

// install stores a granted copy (f, consumed; nil reads as zeroes) and
// labels the page's entry with the grant, in one step under the table's
// push lock. Under last writer wins the copy is the replica's first and
// becomes its winning copy, unless a concurrent update installed one
// first.
func (c *Engine) install(desc *region.Descriptor, tab *pagedir.Table, page gaddr.Addr, f *frame.Frame, g *wire.PageGrantItem, mode ktypes.LockMode) error {
	if f == nil {
		f = zeroFill(desc)
	}
	defer f.Release()
	rec := tab.Touch(page)
	// Under the push lock, as StoreUpdates stores: a late append for an
	// older version cannot store its bytes under this grant's label.
	mu := tab.PushLock()
	mu.Lock()
	defer mu.Unlock()
	if c.p.lww {
		if lf, ok := c.h.LoadPage(rec); ok {
			lf.Release()
			return nil
		}
	}
	if err := c.h.StorePage(rec, f); err != nil {
		return err
	}
	tab.With(page, func(p *pagedir.Page) {
		p.Version = g.Version
		p.Owner = g.Owner
		if c.p.homeLock && mode.Writes() {
			p.State = pagedir.Owned
		} else if p.State != pagedir.Owned {
			p.State = pagedir.Shared
		}
		if c.p.lww {
			f.SetVersion(p.Version)
			c.publishLocked(p, f)
		}
	})
	return nil
}

// sharerInval lists the pages one sharer must drop for a grant batch.
type sharerInval struct {
	node  ktypes.NodeID
	items []wire.InvalidateItem
}

// homeAcquireBatch is CREW's manager-side grant path, shared by local
// clients and the PageReqBatch handler. It takes the global table in the
// caller's ascending page order — the order every batch uses, so
// concurrent batches cannot deadlock — stops at the first page it cannot
// lock, and returns how many leading pages it now holds.
//
// The copies a write grant revokes are invalidated with one InvalidateBatch
// per sharer while every granted page's global write lock is held and
// before the grant returns, so no new reader slips in with stale data. They
// are also flushed before waiting on a held page: the wait may outlast ctx,
// and the directory already names the new owner of the pages granted so
// far. A batch that stops early thus returns an invalidated prefix, and the
// caller's rollback only drops locks.
//
// A remote requester's grants fill grants, Current where have names the
// page's version here. A write grant never revokes the copy of a home
// listed in desc.Home; only region teardown does. That copy is the
// region's failover copy (§3.5): it stays the last committed version
// through the writer's hold, the release's one log append per replica
// refreshes it, and nobody reads it under a lock without a grant. isHome
// is primary-only, and a grant keeps a copy only at the primary's
// version, so a copy the release moved past gets the bytes.
func (c *Engine) homeAcquireBatch(ctx context.Context, desc *region.Descriptor, tab *pagedir.Table, pages []gaddr.Addr, modeOf func(int) ktypes.LockMode, requester ktypes.NodeID, grants []wire.PageGrantItem, have []uint64) (int, error) {
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
				grants[i] = wire.PageGrantItem{OK: true, Current: c.current(have, i, p.Version), Version: p.Version, Owner: p.Owner}
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
			f := loadOrZero(c.h, desc, tab.Rec(page))
			f.SetVersion(version)
			tab.With(page, func(p *pagedir.Page) { c.publishLocked(p, f) })
			f.Release()
		}
	}
	c.invalidateSharers(ctx, tab, requester, inval)
	return len(pages), nil
}

// homeGrantLocked updates the page's directory entry once its global lock
// is held, under the table's mutex, appending the copies a write grant
// revokes to inval (see addInval).
func (c *Engine) homeGrantLocked(desc *region.Descriptor, e *pagedir.Page, mode ktypes.LockMode, requester ktypes.NodeID, inval []sharerInval, left int) []sharerInval {
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

// publishLocked appends f (borrowed; the chain takes its own reference),
// stamped with its page version, to the record's version chain at a fresh
// epoch of the directory's publish clock, unless the chain already holds
// that version or a newer one, and retires unpinned old versions past the
// retention cap. Under last writer wins f always becomes the winning
// copy, and every old version retires. The caller holds the table's
// mutex. A
// shared store frame is protected from a writer's in-place mutation by
// refcounting: with the chain holding a reference, the writer's
// Exclusive() copy-on-writes instead.
func (c *Engine) publishLocked(p *pagedir.Page, f *frame.Frame) {
	if !c.p.lww && chainHolds(p.Chain, f.Version()) {
		return
	}
	if p.Chain == nil {
		p.Chain = frame.NewChain()
	}
	freed := p.Chain.Publish(f.Retain(), c.h.Pages().NextEpoch())
	if c.p.lww {
		freed += p.Chain.Trim()
	}
	c.snapChainLen.Observe(uint64(p.Chain.Len()))
	if freed > 0 {
		c.snapReclaimed.Add(uint64(freed))
	}
}

// TrimPublished releases every unpinned non-latest version across all
// chains and returns the number of frames freed. The store's RAM tier
// calls it on eviction pressure, so old versions always give back memory
// before any demand page is victimized.
func (c *Engine) TrimPublished() int {
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
func (c *Engine) invalidateSharers(ctx context.Context, tab *pagedir.Table, newOwner ktypes.NodeID, inval []sharerInval) {
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

// ReleaseBatch implements CM. Under CREW the home drops the global locks
// and commits dirty pages, and another node sends it one ReleaseBatch.
// Under a local lock the locks drop here, and a write's dirty pages go
// home as one UpdateBatch (under last writer wins, each claimed at the
// version after the one written over; the home gossips them). Per-page
// errors let the caller queue retries for just the failures (§3.5).
func (c *Engine) ReleaseBatch(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, mode ktypes.LockMode, dirty []bool) []error {
	if len(pages) == 0 {
		return nil
	}
	mode = c.mode(mode)
	tab := heldTable(c.h, desc)
	if tab == nil {
		return nil // the region was torn down here during the hold
	}
	home := isHome(c.h, desc)
	if !c.p.homeLock {
		defer func() {
			for _, p := range pages {
				if c.p.lww {
					c.applyPending(ctx, desc, tab, p)
				}
				tab.Release(p, mode)
			}
		}()
		if !mode.Writes() {
			return nil
		}
		if c.p.lww {
			return c.claim(ctx, desc, tab, pages, dirty)
		}
		if home {
			for i, p := range pages {
				if isDirty(dirty, i) {
					tab.Update(p, func(e *pagedir.Entry) { e.Version++ })
				}
			}
			return nil
		}
	}
	if home {
		return c.homeReleaseBatch(ctx, desc, tab, len(pages), func(i int) Redelivery {
			return Redelivery{Page: pages[i], Mode: mode, Dirty: isDirty(dirty, i)}
		}, c.h.Self())
	}
	// The releases sit on the stack for a batch of up to 16 pages.
	var buf [16]Redelivery
	rel := slices.Grow(buf[:0], len(pages))
	for i, p := range pages {
		rel = append(rel, Redelivery{Page: p, Mode: mode, Dirty: isDirty(dirty, i)})
	}
	return c.deliver(ctx, desc, tab, rel)
}

// Redeliver implements CM.
func (c *Engine) Redeliver(ctx context.Context, desc *region.Descriptor, rel []Redelivery) []error {
	if c.p.homeLock && slices.ContainsFunc(rel, func(r Redelivery) bool { return r.Frame != nil }) {
		// CREW delivers dirty contents only with the release that frees
		// the writer's lock at the home; the queued retry needs the copy.
		return batchErrs(len(rel), errors.New("consistency: a CREW page's dirty copy leaves only with its release"))
	}
	return c.deliver(ctx, desc, heldTable(c.h, desc), rel)
}

// deliver is the network half of a release away from the home, shared by
// ReleaseBatch and Redeliver: a ReleaseBatch of every page under CREW,
// else an UpdateBatch of the dirty pages, and the per-page errors (nil
// when all succeeded) aligned with rel. A dirty page with no copy left
// here (tab is nil after a teardown here) was already delivered by its
// eviction (§3.4): nothing is pushed over it, and CREW still unlocks it.
func (c *Engine) deliver(ctx context.Context, desc *region.Descriptor, tab *pagedir.Table, rel []Redelivery) []error {
	if len(rel) == 0 {
		return nil
	}
	home, err := homeOf(desc)
	if err != nil {
		return batchErrs(len(rel), err)
	}
	self := c.h.Self()
	// copyOf returns a dirty page's copy with a reference of its own, the
	// caller's or the one held here; nil when there is none. The message
	// holds it until the request (and its marshal) completes, so the views
	// in it never dangle.
	copyOf := func(r *Redelivery) *frame.Frame {
		if r.Frame != nil {
			return r.Frame.Retain()
		}
		if tab == nil {
			return nil
		}
		f, _ := c.h.LoadPage(tab.Touch(r.Page))
		return f
	}
	var errs []error
	fail := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(rel))
		}
		errs[i] = err
	}
	if c.p.homeLock {
		items := make([]wire.ReleaseItem, len(rel))
		var vbuf [16]uint64 // each dirty page's version before the release
		var before []uint64
		for i := range rel {
			r := &rel[i]
			items[i] = wire.ReleaseItem{Page: r.Page, Mode: c.mode(r.Mode)}
			if r.Dirty && r.Mode.Writes() {
				if f := copyOf(r); f != nil {
					items[i].Dirty = true
					items[i].SetFrame(f)
					f.Release()
					if tab != nil {
						if before == nil {
							before = slices.Grow(vbuf[:0], len(rel))[:len(rel)]
						}
						e, _ := tab.Lookup(r.Page)
						before[i] = e.Version
					}
				}
			}
		}
		batch := &wire.ReleaseBatch{From: self, Items: items}
		resp, err := c.h.Request(ctx, home, batch)
		batch.ReleaseFrames()
		rb, ok := resp.(*wire.ReleaseBatchResp)
		if err == nil && !ok && !wire.OneWay(batch) {
			err = fmt.Errorf("unexpected reply %T", resp)
		}
		if err != nil {
			return batchErrs(len(rel), fmt.Errorf("consistency: release batch (%d pages) to %v: %w", len(rel), home, err))
		}
		if !ok {
			return nil // a clean batch is one-way: its failures count at the home
		}
		// The error slice is built only when a page failed, which almost
		// no release does. A committed page is at least one past its
		// version before the release; a secondary home's own log append
		// may already have stored that version here.
		for i := range items {
			if i < len(rb.Errs) && rb.Errs[i] != "" {
				fail(i, fmt.Errorf("consistency: release %v to %v: %s", items[i].Page, home, rb.Errs[i]))
			} else if items[i].Dirty && before != nil {
				tab.Update(items[i].Page, func(e *pagedir.Entry) { e.Version = max(e.Version, before[i]+1) })
			}
		}
		return errs
	}
	if tab == nil {
		return nil
	}
	batch := &wire.UpdateBatch{From: self}
	var idx []int // into rel, of the pushed pages
	for i := range rel {
		r := &rel[i]
		if !r.Dirty {
			continue
		}
		it := wire.UpdateItem{Page: r.Page, Origin: self}
		var f *frame.Frame
		if c.p.lww {
			// The winning copy, read with its version and writer: no lock
			// is taken, as an eviction runs under the disk tier's.
			var e pagedir.Entry
			e, f = winning(tab, r.Page)
			it.Version, it.Origin = e.Version, e.Owner
		} else {
			f = copyOf(r)
		}
		if f == nil {
			continue
		}
		it.SetFrame(f)
		f.Release()
		batch.Items = append(slices.Grow(batch.Items, len(rel)-i), it)
		idx = append(slices.Grow(idx, len(rel)-i), i)
	}
	if len(idx) == 0 {
		return nil
	}
	resp, err := c.h.Request(ctx, home, batch)
	batch.ReleaseFrames()
	reply, ok := resp.(*wire.UpdateBatch)
	if err == nil && (!ok || len(reply.Items) != len(idx)) {
		err = fmt.Errorf("unexpected reply %T", resp)
	}
	if err != nil {
		err = fmt.Errorf("consistency: push batch (%d pages) to %v: %w", len(idx), home, err)
		for _, i := range idx {
			fail(i, err)
		}
		return errs
	}
	for j := range reply.Items {
		it := &reply.Items[j]
		f := it.TakeFrame()
		switch {
		case f != nil && rel[idx[j]].Frame == nil:
			// The home holds a newer write than the one pushed: take it
			// (unless the page is leaving the node).
			mu := tab.PushLock()
			mu.Lock()
			_, err := c.lwwApply(tab, it.Page, f, it.Version, it.Origin)
			mu.Unlock()
			if err != nil {
				fail(idx[j], err)
			}
		case !c.p.lww:
			tab.Update(it.Page, func(e *pagedir.Entry) { e.Version = it.Version })
		}
		if f != nil {
			f.Release()
		}
	}
	return errs
}

// homeReleaseBatch applies n CREW releases at the manager, a local
// client's or a ReleaseBatch's from a peer, each built by at (its frame,
// if any, consumed), and returns the per-item errors, nil when every
// release succeeded; a failed write-through is retried on its own (§3.5).
// The batch's dirty pages are then written through to the secondary
// homes in one round.
func (c *Engine) homeReleaseBatch(ctx context.Context, desc *region.Descriptor, tab *pagedir.Table, n int, at func(int) Redelivery, from ktypes.NodeID) []error {
	var errs []error
	var replicated []gaddr.Addr
	for i := range n {
		r := at(i)
		mode := c.mode(r.Mode)
		err := c.homeRelease(desc, tab, r.Page, mode, r.Dirty, from, r.Frame)
		if r.Frame != nil {
			r.Frame.Release()
		}
		if err != nil {
			if errs == nil {
				errs = make([]error, n)
			}
			errs[i] = err
			continue
		}
		if mode.Writes() && r.Dirty {
			// Sized once, at the first dirty page, for the rest.
			replicated = append(slices.Grow(replicated, n-i), r.Page)
		}
	}
	c.replicate(ctx, desc, tab, replicated)
	return errs
}

// homeRelease applies a CREW release at the manager. A failed
// write-through is reported to the releaser — losing it would silently
// drop the only current copy of the page's contents at the home — but the
// global lock is released regardless so the page does not wedge. The
// committed contents enter the page's version chain in the same step that
// bumps its version and drops the lock: snapshot readers pinned to older
// epochs keep their versions, new snapshots see this one.
func (c *Engine) homeRelease(desc *region.Descriptor, tab *pagedir.Table, page gaddr.Addr, mode ktypes.LockMode, dirty bool, from ktypes.NodeID, f *frame.Frame) error {
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
			c.publishLocked(p, committed)
		}
		// Unlock tolerates an unheld lock: after a failover this home may
		// receive a (retried) release for a grant the failed primary
		// issued.
		p.Unlock(mode)
	})
	return storeErr
}

// snapshot serves a snapshot read here: the home's under CREW and release
// consistency, any replica's under last writer wins. epoch 0 cuts at the
// directory's current publish epoch; the chosen cut is returned so a
// snapshot context can pin it for later requests. Readers never touch a
// lock, never join a copyset, and never trigger invalidation: a page
// under a CREW writer's exclusive hold serves its last committed version
// from the chain (seeded at grant time). A page with no chain serves the
// store copy, committed by construction (release consistency writes it
// only at release time). The caller owns every returned frame.
func (c *Engine) snapshot(desc *region.Descriptor, pages []gaddr.Addr, epoch uint64) ([]SnapPage, uint64) {
	if epoch == 0 {
		epoch = c.h.Pages().Epoch()
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

// SnapshotRead implements CM: committed copies without locks, served
// here under last writer wins or at the home, else from the home in one
// SnapshotReqBatch round trip.
func (c *Engine) SnapshotRead(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, epoch uint64) ([]SnapPage, uint64, error) {
	if c.p.lww || isHome(c.h, desc) {
		snaps, at := c.snapshot(desc, pages, epoch)
		return snaps, at, nil
	}
	home, err := homeOf(desc)
	if err != nil {
		return nil, 0, err
	}
	return snapshotFromHome(ctx, c.h, desc, home, pages, epoch)
}

// replicate makes a CREW release durable and writes it through in one
// round: each secondary home gets one replicated-log append carrying a
// ReplOpRelease entry per released page — version, owner, copyset and
// publish epoch, what a standby that wins the failover election resumes
// from (§3.5) — and the page's bytes, which it stores before it appends.
// Each frame is loaded once and shared by every message. It returns once
// a majority of the home list holds the release. Write grants leave homes
// listed and replica maintenance (§3.5) re-pushes only to homes the
// copyset omits, so the copysets follow each secondary's answer, early or
// late (PageSource.Acked).
func (c *Engine) replicate(ctx context.Context, desc *region.Descriptor, tab *pagedir.Table, pages []gaddr.Addr) {
	if len(pages) == 0 || len(desc.Home) < 2 {
		return
	}
	self, epoch := c.h.Self(), c.h.Pages().Epoch()
	entries := make([]wire.ReplEntry, 0, len(pages))
	items := make([]wire.UpdateItem, 0, len(pages))
	for _, p := range pages {
		it, e, ok := currentItem(self, c.h, tab, p)
		if !ok {
			continue
		}
		entries = append(entries, wire.ReplEntry{Op: wire.ReplOpRelease, Page: p, Val: e.Version, Node: e.Owner, Nodes: e.Copyset, Aux: epoch})
		items = append(items, it)
	}
	if len(items) == 0 {
		return
	}
	// ErrNotLeader can surface during a failover race (this node was
	// deposed between the grant and the release); the release itself
	// still completed and the §3.5 background loops re-converge, so the
	// error is not propagated, only counted.
	if c.h.Repl().AppendPages(ctx, desc, items, entries...) != nil {
		c.unlogged.Add(1)
		return
	}
	for range len(desc.Home) - 1 { // one per secondary
		c.updateBatchPages.Observe(uint64(len(items)))
	}
}

// Handle implements CM.
func (c *Engine) Handle(ctx context.Context, desc *region.Descriptor, from ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	switch msg := m.(type) {
	case *wire.PageReqBatch:
		return c.handlePageReqBatch(ctx, desc, msg)
	case *wire.ReleaseBatch:
		if c.p.homeLock {
			return c.handleReleaseBatch(ctx, desc, msg)
		}
	case *wire.UpdateBatch:
		if !c.p.homeLock {
			return c.handlePush(ctx, desc, from, msg)
		}
	case *wire.ReplAppend:
		return c.handleReplAppend(desc, from, msg), nil
	case *wire.InvalidateBatch:
		c.handleInvalidateBatch(desc, msg)
		return &wire.Ack{}, nil
	case *wire.SnapshotReqBatch:
		if !c.p.lww && !isHome(c.h, desc) {
			return nil, ErrNotHome
		}
		return snapshotReply(c.snapshot(desc, msg.Pages, msg.Epoch)), nil
	//khazana:wire-default non-CM kinds are unroutable here by design
	default:
	}
	return nil, fmt.Errorf("%w: %v got %T", ErrUnknownMsg, c.p.proto, m)
}

// handleInvalidateBatch is the sharer side of a write grant: every listed
// copy is dropped and marked invalid under the new owner.
func (c *Engine) handleInvalidateBatch(desc *region.Descriptor, msg *wire.InvalidateBatch) {
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
// the request is answered in one reply with per-page status, Current
// without bytes where the requester's copy is current by the protocol's
// rule. Under CREW the grants take the home's locks and stop at the first
// failure — the requester will roll the batch back anyway, so acquiring
// the remaining locks would only be churn; otherwise every page is
// served and its requester joins the copyset.
func (c *Engine) handlePageReqBatch(ctx context.Context, desc *region.Descriptor, msg *wire.PageReqBatch) (wire.Msg, error) {
	resp := &wire.PageGrantBatch{Grants: make([]wire.PageGrantItem, len(msg.Pages))}
	if len(msg.Modes) != len(msg.Pages) || msg.Have != nil && len(msg.Have) != len(msg.Pages) {
		return nil, fmt.Errorf("consistency: batch: %d pages with %d modes and %d versions", len(msg.Pages), len(msg.Modes), len(msg.Have))
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
		msg.Modes[i] = c.mode(mode)
	}
	tab := tableOf(c.h, desc)
	granted, err := len(msg.Pages), error(nil)
	if c.p.homeLock {
		granted, err = c.homeAcquireBatch(ctx, desc, tab, msg.Pages, func(i int) ktypes.LockMode { return msg.Modes[i] }, msg.Requester, resp.Grants, msg.Have)
	} else {
		for i, page := range msg.Pages {
			tab.With(page, func(p *pagedir.Page) {
				p.HomedLocal = true
				p.AddSharer(msg.Requester)
				resp.Grants[i] = wire.PageGrantItem{OK: true, Current: c.current(msg.Have, i, p.Version), Version: p.Version, Owner: p.Owner}
			})
		}
	}
	for i, page := range msg.Pages[:granted] {
		if resp.Grants[i].Current {
			c.grantCurrent.Add(1)
			continue
		}
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

// handleReleaseBatch is the manager side of a remote CREW release: the
// reply carries per-item status, built only when a page failed. A one-way
// (clean) batch gets no reply; its failed items are counted instead.
func (c *Engine) handleReleaseBatch(ctx context.Context, desc *region.Descriptor, msg *wire.ReleaseBatch) (wire.Msg, error) {
	oneWay := wire.OneWay(msg)
	if !isHome(c.h, desc) {
		if oneWay {
			c.oneWayFailed.Add(uint64(len(msg.Items)))
		}
		return nil, ErrNotHome
	}
	errs := c.homeReleaseBatch(ctx, desc, tableOf(c.h, desc), len(msg.Items), func(i int) Redelivery {
		it := &msg.Items[i]
		//khazana:frame-owner consumed by homeReleaseBatch
		return Redelivery{Page: it.Page, Mode: it.Mode, Dirty: it.Dirty, Frame: it.TakeFrame()}
	}, msg.From)
	if oneWay {
		for _, err := range errs {
			if err != nil {
				c.oneWayFailed.Add(1)
			}
		}
		return nil, nil
	}
	resp := &wire.ReleaseBatchResp{}
	for i, err := range errs {
		if err != nil {
			if resp.Errs == nil {
				resp.Errs = make([]string, len(msg.Items))
			}
			resp.Errs[i] = err.Error()
		}
	}
	return resp, nil
}

// handleReplAppend is a secondary home's side of a replicated release:
// the pages are stored first, so the entries naming them are appended —
// and acked — only once their bytes are here. An append from a stale term
// stores nothing, and a failed store NACKs without appending.
func (c *Engine) handleReplAppend(desc *region.Descriptor, from ktypes.NodeID, msg *wire.ReplAppend) wire.Msg {
	l := c.h.Repl()
	if _, term := l.Leader(msg.Region); msg.Term < term {
		return l.HandleAppend(msg)
	}
	if err := StoreUpdates(c.h, desc, from, msg.Pages); err != nil {
		return &wire.ReplAck{Term: msg.Term, Err: err.Error()}
	}
	return l.HandleAppend(msg)
}
