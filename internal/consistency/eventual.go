package consistency

import (
	"context"
	"fmt"
	"sync"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/pagedir"
	"khazana/internal/region"
	"khazana/internal/telemetry"
	"khazana/internal/wire"
)

// EventualCM implements the relaxed protocol the paper anticipates for
// "applications such as web caches and some database query engines for
// which release consistency is overkill. Such applications typically can
// tolerate data that is temporarily out-of-date (i.e., one or two versions
// old) as long as they get fast response" (§3.3).
//
// Reads and writes are served entirely from the local replica; dirty pages
// propagate to the home at release time with a last-writer-wins timestamp,
// and the home gossips accepted updates to the other replica sites. All
// replicas converge on the maximum-stamped update; intermediate reads may
// be stale by design.
//
// Two mechanisms keep page bytes and LWW stamps paired without blocking:
// inbound updates arriving while a local write lock is held are parked and
// applied at release, and the CM keeps an authoritative shadow of the
// winning bytes so a local write that loses the LWW race can be rolled
// back.
type EventualCM struct {
	h Host

	// pushFailures counts update propagations (gossip rounds) that
	// failed to reach a replica site; the anti-entropy / replica
	// maintenance path uses it to observe divergence pressure instead
	// of the failures vanishing silently. Registry-backed, so it also
	// surfaces through `khazctl stats` and /metrics.
	pushFailures *telemetry.Counter
	// applyFailures counts parked updates that could not be applied at
	// lock release (e.g. local store errors) — each one means a replica
	// is still a version behind. Registry-backed like pushFailures.
	applyFailures *telemetry.Counter

	mu sync.Mutex
	// auth shadows the LWW-winning contents per page; each entry holds
	// one frame reference, released when the entry is replaced. The
	// frames are shared (responses alias them), so their contents are
	// immutable.
	auth map[gaddr.Addr]*frame.Frame
	// pending parks updates that arrived under a local write lock.
	pending map[gaddr.Addr]*parkedUpdate
}

// parkedUpdate is an inbound update held until the local write lock
// releases. It owns one reference on f (taken off the inbound message,
// whose buffer the transport may recycle after the handler returns).
type parkedUpdate struct {
	//khazana:frame-owner released when the parked update is applied or superseded
	f      *frame.Frame
	stamp  int64
	origin ktypes.NodeID
}

// PushFailures reports how many best-effort update propagations to
// replica sites have failed so far.
func (c *EventualCM) PushFailures() uint64 { return c.pushFailures.Load() }

// ApplyFailures reports how many parked updates failed to apply at
// release time.
func (c *EventualCM) ApplyFailures() uint64 { return c.applyFailures.Load() }

// NewEventual creates the eventual-consistency manager for a node.
func NewEventual(h Host) *EventualCM {
	tel := h.Telemetry()
	return &EventualCM{
		h:             h,
		pushFailures:  tel.Counter(telemetry.MetricEventualPushFailures),
		applyFailures: tel.Counter(telemetry.MetricEventualApplyFailures),
		auth:          make(map[gaddr.Addr]*frame.Frame),
		pending:       make(map[gaddr.Addr]*parkedUpdate),
	}
}

var _ CM = (*EventualCM)(nil)

// Protocol implements CM.
func (c *EventualCM) Protocol() region.Protocol { return region.Eventual }

// ensureReplica gives an acquired page a local replica. The only remote
// traffic is a one-time fetch when the node has none and is not the
// home — the fast-response property.
func (c *EventualCM) ensureReplica(ctx context.Context, desc *region.Descriptor, tab *pagedir.Table, page gaddr.Addr) error {
	if isHome(c.h, desc) {
		tab.Update(page, func(e *pagedir.Entry) { e.HomedLocal = true })
		return nil
	}
	rec := tab.Touch(page)
	if lf, ok := c.h.LoadPage(rec); ok {
		lf.Release()
		return nil
	}
	f, version, err := fetchFromHome(ctx, c.h, desc, page, 0)
	if err != nil {
		return err
	}
	defer f.Release()
	c.mu.Lock()
	defer c.mu.Unlock()
	//khazana:block-ok c.mu pairs a page's bytes with its LWW stamp; a disk-tier promotion under it stalls only this protocol's installs (§3.4 tiered store)
	if lf, already := c.h.LoadPage(rec); already {
		lf.Release()
		return nil // a concurrent update beat us to it
	}
	if err := c.h.StorePage(rec, f); err != nil {
		return err
	}
	c.setAuthLocked(page, f)
	tab.Update(page, func(e *pagedir.Entry) {
		e.State = pagedir.Shared
		e.Version = version
	})
	return nil
}

// setAuthLocked replaces the auth shadow for page with f (borrowed; the
// map takes its own reference). Caller holds c.mu.
func (c *EventualCM) setAuthLocked(page gaddr.Addr, f *frame.Frame) {
	old := c.auth[page]
	//khazana:frame-owner auth map holds one reference per entry
	c.auth[page] = f.Retain()
	if old != nil {
		old.Release()
	}
}

// applyLocked installs (f, stamp, origin) iff it supersedes the local
// state under last-writer-wins. f is borrowed; f == nil means "the bytes
// already in the local store" (a local write claiming its stamp). Caller
// holds c.mu.
func (c *EventualCM) applyLocked(tab *pagedir.Table, page gaddr.Addr, f *frame.Frame, stamp int64, origin ktypes.NodeID) (bool, error) {
	entry, _ := tab.Lookup(page)
	if !newerStamp(stamp, origin, &entry) {
		return false, nil
	}
	rec := tab.Touch(page)
	if f == nil {
		//khazana:frame-owner the loaded reference transfers into the auth map below
		stored, ok := c.h.LoadPage(rec)
		if !ok {
			return false, fmt.Errorf("consistency: eventual claim %v: no local data", page)
		}
		// Transfer the loaded reference straight into the auth map.
		old := c.auth[page]
		//khazana:frame-owner auth map holds one reference per entry
		c.auth[page] = stored
		if old != nil {
			old.Release()
		}
	} else {
		if err := c.h.StorePage(rec, f); err != nil {
			return false, err
		}
		c.setAuthLocked(page, f)
	}
	tab.Update(page, func(e *pagedir.Entry) {
		e.Stamp = stamp
		e.StampNode = origin
		e.Version++
		e.State = pagedir.Shared
	})
	return true, nil
}

// newerStamp reports whether (stamp, node) supersedes the entry under
// last-writer-wins with node-ID tiebreak.
func newerStamp(stamp int64, node ktypes.NodeID, e *pagedir.Entry) bool {
	if stamp != e.Stamp {
		return stamp > e.Stamp
	}
	return node > e.StampNode
}

// applyPending installs any update parked while the write lock was held.
// When the home applies a parked update it still owes the copyset a
// gossip round, or replicas that missed it would never converge.
func (c *EventualCM) applyPending(ctx context.Context, desc *region.Descriptor, tab *pagedir.Table, page gaddr.Addr) {
	c.mu.Lock()
	upd, ok := c.pending[page]
	var applied bool
	if ok {
		delete(c.pending, page)
		var err error
		//khazana:block-ok c.mu pairs a page's bytes with its LWW stamp; a disk-tier promotion under it stalls only this protocol's installs (§3.4 tiered store)
		applied, err = c.applyLocked(tab, page, upd.f, upd.stamp, upd.origin)
		if err != nil {
			// The local replica stays a version old; it converges on the
			// next accepted update. Count the miss so operators can see
			// replicas failing to keep up.
			c.applyFailures.Add(1)
		}
	}
	c.mu.Unlock()
	if applied && isHome(c.h, desc) {
		c.gossipBatch(ctx, tab, []gossipUpdate{{page: page, f: upd.f, stamp: upd.stamp, origin: upd.origin}})
	}
	if ok && upd.f != nil {
		upd.f.Release()
	}
}

// gossipUpdate is one accepted update bound for the copyset fan-out. The
// frame is borrowed for the duration of gossipBatch.
type gossipUpdate struct {
	page   gaddr.Addr
	f      *frame.Frame
	stamp  int64
	origin ktypes.NodeID
}

// gossipBatch forwards accepted updates to every other replica site: one
// UpdateBatch RPC per destination covering all of that destination's
// pages. Every item shares its update's single refcounted frame across the
// whole fan-out — each SetFrame takes a reference on the same frame, so a
// push targeting several replicas never copies the page contents.
// Best-effort, as gossip has always been: a site that misses an update
// converges on the next accepted one (or stays a version old, which this
// protocol permits), but each missed page counts a push failure so
// divergence stays observable.
func (c *EventualCM) gossipBatch(ctx context.Context, tab *pagedir.Table, updates []gossipUpdate) {
	if len(updates) == 0 {
		return
	}
	self := c.h.Self()
	dests := make(map[ktypes.NodeID][]int)
	var order []ktypes.NodeID
	for i := range updates {
		u := &updates[i]
		entry, ok := tab.Lookup(u.page)
		if !ok {
			continue
		}
		for _, n := range entry.Copyset {
			if n == self || n == u.origin {
				continue
			}
			if _, seen := dests[n]; !seen {
				order = append(order, n)
			}
			dests[n] = append(dests[n], i)
		}
	}
	FanOut(order, maxReplicateFanout, func(n ktypes.NodeID) {
		idxs := dests[n]
		batch := &wire.UpdateBatch{From: self, Items: make([]wire.UpdateItem, len(idxs))}
		for j, i := range idxs {
			u := &updates[i]
			batch.Items[j] = wire.UpdateItem{Page: u.page, Stamp: u.stamp, Origin: u.origin}
			if u.f != nil {
				batch.Items[j].SetFrame(u.f)
			}
		}
		_, err := c.h.Request(ctx, n, batch)
		batch.ReleaseFrames()
		if err != nil {
			c.pushFailures.Add(uint64(len(idxs)))
		}
	})
}

// AcquireBatch implements CM page by page: the eventual protocol serves
// acquires from the local replica, so batching buys nothing beyond the
// rare initial fetches.
func (c *EventualCM) AcquireBatch(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, mode ktypes.LockMode) ([]gaddr.Addr, error) {
	tab := tableOf(c.h, desc)
	return acquireEach(ctx, tab, pages, mode, func(p gaddr.Addr) error { return c.ensureReplica(ctx, desc, tab, p) })
}

// ReleaseBatch implements CM: the batch's dirty pages claim one clock
// stamp, and the pushes travel as one UpdateBatch per destination — a
// single RPC to the home from a replica site, or one gossip batch per
// copyset member at the home. Local locks always release, and updates
// parked while a write lock was held apply on the way out.
func (c *EventualCM) ReleaseBatch(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, mode ktypes.LockMode, dirty []bool) []error {
	if len(pages) == 0 {
		return nil
	}
	tab := heldTable(c.h, desc)
	if tab == nil {
		return nil // the region was torn down here during the hold
	}
	defer func() {
		for _, p := range pages {
			c.applyPending(ctx, desc, tab, p)
			tab.Release(p, mode)
		}
	}()
	if !mode.Writes() {
		return nil
	}
	stamp := c.h.Clock()
	self := c.h.Self()
	var errs []error
	setErr := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(pages))
		}
		errs[i] = err
	}
	idx := make(map[gaddr.Addr]int, len(pages))
	for i, p := range pages {
		idx[p] = i
	}
	var claimed []gossipUpdate
	c.mu.Lock()
	for i, p := range pages {
		if !isDirty(dirty, i) {
			continue
		}
		//khazana:block-ok c.mu pairs a page's bytes with its LWW stamp; a disk-tier promotion under it stalls only this protocol's installs (§3.4 tiered store)
		ok, err := c.applyLocked(tab, p, nil, stamp, self)
		if err != nil {
			setErr(i, err)
			continue
		}
		if !ok {
			// A newer update won while we were writing; our bytes lose
			// under LWW. Roll the store back to the winning contents.
			if auth, okA := c.auth[p]; okA {
				if serr := c.h.StorePage(tab.Touch(p), auth); serr != nil {
					setErr(i, serr)
				}
			}
			continue
		}
		// Pin the claimed bytes for the push; the auth entry may be
		// replaced concurrently once the mutex drops.
		//khazana:frame-owner released after the push/gossip fan-out below
		claimed = append(claimed, gossipUpdate{page: p, f: c.auth[p].Retain(), stamp: stamp, origin: self})
	}
	c.mu.Unlock()
	defer func() {
		for _, u := range claimed {
			u.f.Release()
		}
	}()
	if len(claimed) == 0 {
		return errs
	}
	if isHome(c.h, desc) {
		for _, u := range claimed {
			tab.Update(u.page, func(e *pagedir.Entry) { e.HomedLocal = true })
		}
		c.gossipBatch(ctx, tab, claimed)
		return errs
	}
	home, err := homeOf(desc)
	if err != nil {
		for _, u := range claimed {
			setErr(idx[u.page], err)
		}
		return errs
	}
	batch := &wire.UpdateBatch{From: self, Items: make([]wire.UpdateItem, len(claimed))}
	for i, u := range claimed {
		batch.Items[i] = wire.UpdateItem{Page: u.page, Stamp: u.stamp, Origin: u.origin}
		batch.Items[i].SetFrame(u.f)
	}
	resp, err := c.h.Request(ctx, home, batch)
	batch.ReleaseFrames()
	if err != nil {
		err = fmt.Errorf("consistency: eventual push batch (%d pages) to %v: %w", len(claimed), home, err)
		for _, u := range claimed {
			setErr(idx[u.page], err)
		}
		return errs
	}
	// The home answers with its authoritative per-page state; reconcile
	// in case some of our pushes lost to newer updates.
	if auth, ok := resp.(*wire.UpdateBatch); ok {
		for i := range auth.Items {
			it := &auth.Items[i]
			af := it.TakeFrame()
			if af == nil {
				continue
			}
			c.mu.Lock()
			//khazana:block-ok c.mu pairs a page's bytes with its LWW stamp; a disk-tier promotion under it stalls only this protocol's installs (§3.4 tiered store)
			_, aerr := c.applyLocked(tab, it.Page, af, it.Stamp, it.Origin)
			c.mu.Unlock()
			af.Release()
			if aerr != nil {
				if j, known := idx[it.Page]; known {
					setErr(j, aerr)
				}
			}
		}
	}
	return errs
}

// inboundResult is one inbound update's outcome: whether it applied, the
// authoritative stamp/origin after processing, the authoritative bytes
// (retained; release() drops them), and the surviving inbound frame (nil
// when ownership moved to a parked update).
type inboundResult struct {
	applied bool
	stamp   int64
	origin  ktypes.NodeID
	//khazana:frame-owner released by inboundResult.release
	auth *frame.Frame
	//khazana:frame-owner released by inboundResult.release
	inbound *frame.Frame
}

// release drops the result's frame references.
func (r *inboundResult) release() {
	if r.auth != nil {
		r.auth.Release()
		r.auth = nil
	}
	if r.inbound != nil {
		r.inbound.Release()
		r.inbound = nil
	}
}

// applyInbound processes one pushed update: park it under an active local
// write lock, or apply it via last-writer-wins. Ownership of uf transfers
// in; the result's frames transfer back out (release() them when done).
func (c *EventualCM) applyInbound(tab *pagedir.Table, home bool, page gaddr.Addr, uf *frame.Frame, stamp int64, origin ktypes.NodeID) (inboundResult, error) {
	if home {
		tab.Update(page, func(e *pagedir.Entry) {
			e.HomedLocal = true
			e.AddSharer(origin)
		})
	}
	c.mu.Lock()
	var applied bool
	var err error
	if tab.WriteLocked(page) {
		// A local writer is active: park the update; it is applied
		// (LWW) when the lock releases.
		if prev, ok := c.pending[page]; !ok || stamp > prev.stamp ||
			(stamp == prev.stamp && origin > prev.origin) {
			if ok && prev.f != nil {
				prev.f.Release()
			}
			//khazana:frame-owner ownership moves to the parked update
			c.pending[page] = &parkedUpdate{f: uf, stamp: stamp, origin: origin}
			uf = nil
		}
	} else {
		//khazana:block-ok c.mu pairs a page's bytes with its LWW stamp; a disk-tier promotion under it stalls only this protocol's installs (§3.4 tiered store)
		applied, err = c.applyLocked(tab, page, uf, stamp, origin)
	}
	entry, _ := tab.Lookup(page)
	var af *frame.Frame
	if a, ok := c.auth[page]; ok {
		// Pin the authoritative bytes for the reply while the mutex is
		// still held; no copy is made.
		af = a.Retain()
	}
	c.mu.Unlock()
	return inboundResult{applied: applied, stamp: entry.Stamp, origin: entry.StampNode, auth: af, inbound: uf}, err
}

// Handle implements CM.
func (c *EventualCM) Handle(ctx context.Context, desc *region.Descriptor, from ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	switch msg := m.(type) {
	case *wire.PageFetch:
		return serveFetch(c.h, desc, msg), nil
	case *wire.UpdateBatch:
		// A batched push: a replica site releasing several dirty pages at
		// once, another home's gossip round, or a background retry drain.
		// Each item parks or applies under last-writer-wins, and the reply
		// mirrors the batch with the authoritative per-page state so the
		// pusher reconciles losses in one pass.
		home := isHome(c.h, desc)
		tab := tableOf(c.h, desc)
		resp := &wire.UpdateBatch{From: c.h.Self(), Items: make([]wire.UpdateItem, len(msg.Items))}
		var accepted []gossipUpdate
		for i := range msg.Items {
			it := &msg.Items[i]
			res, err := c.applyInbound(tab, home, it.Page, it.TakeFrame(), it.Stamp, it.Origin)
			if err != nil {
				// Best-effort, like gossip itself: the reply still
				// carries the authoritative state for this page, and the
				// replica converges on the next accepted update.
				c.applyFailures.Add(1)
			}
			resp.Items[i] = wire.UpdateItem{Page: it.Page, Stamp: res.stamp, Origin: res.origin}
			if res.auth != nil {
				resp.Items[i].SetFrame(res.auth)
			}
			if home && res.applied && res.inbound != nil {
				//khazana:frame-owner released after the gossip fan-out below
				accepted = append(accepted, gossipUpdate{page: it.Page, f: res.inbound.Retain(), stamp: it.Stamp, origin: it.Origin})
			}
			res.release()
		}
		if home && len(accepted) > 0 {
			c.gossipBatch(ctx, tab, accepted)
			for _, u := range accepted {
				u.f.Release()
			}
		}
		return resp, nil
	case *wire.SnapshotReqBatch:
		// Any replica serves a snapshot from its local copy: eventual
		// consistency already tolerates temporarily out-of-date data, so
		// a remote cut is no weaker than a remote read.
		return snapshotReply(snapshotFromStore(c.h, desc, msg.Pages), msg.Epoch), nil
	//khazana:wire-default non-CM kinds are unroutable here by design
	default:
		return nil, fmt.Errorf("%w: eventual got %T", ErrUnknownMsg, m)
	}
}

// SnapshotRead implements CM entirely locally: the eventual protocol
// serves reads from whatever replica is at hand (paper §5's
// out-of-date-tolerant clients), so a snapshot is the local store copy
// with no wire traffic at all. The caller's epoch is echoed unchanged.
func (c *EventualCM) SnapshotRead(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, epoch uint64) ([]SnapPage, uint64, error) {
	_ = ctx
	return snapshotFromStore(c.h, desc, pages), epoch, nil
}
