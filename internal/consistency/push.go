package consistency

import (
	"context"
	"fmt"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/pagedir"
	"khazana/internal/region"
	"khazana/internal/wire"
)

// handlePush applies an UpdateBatch under release or eventual
// consistency: a release's dirty pages at the home, a retry or dirty
// eviction (§3.4, §3.5), or the home's gossip at a replica. The reply
// mirrors the batch with the state here of each page, and the bytes where
// they beat the pushed write. Under release consistency the home stores
// and bumps each page, and a failed store fails the batch. Under last
// writer wins an update parks under a local write lock or applies if
// newer, a failed install is counted, and the home gossips what it took.
func (c *Engine) handlePush(ctx context.Context, desc *region.Descriptor, from ktypes.NodeID, msg *wire.UpdateBatch) (wire.Msg, error) {
	home := isHome(c.h, desc)
	if !home && !c.p.lww {
		return nil, ErrNotHome
	}
	tab := tableOf(c.h, desc)
	resp := &wire.UpdateBatch{From: c.h.Self(), Items: make([]wire.UpdateItem, len(msg.Items))}
	var accepted []gaddr.Addr
	mu := tab.PushLock()
	mu.Lock()
	for i := range msg.Items {
		it := &msg.Items[i]
		if home {
			tab.Update(it.Page, func(e *pagedir.Entry) {
				e.HomedLocal = true
				e.AddSharer(from)
			})
		}
		f := it.TakeFrame()
		if f == nil {
			f = zeroFill(desc)
		}
		var err error
		if c.p.lww {
			var applied bool
			if applied, err = c.lwwInbound(tab, it.Page, f, it.Stamp, it.Origin); err != nil {
				c.applyFailures.Add(1)
			}
			if applied && home {
				accepted = append(accepted, it.Page)
			}
		} else if err = c.h.StorePage(tab.Touch(it.Page), f); err == nil {
			tab.Update(it.Page, func(e *pagedir.Entry) {
				e.Version++
				e.State = pagedir.Shared
			})
		}
		f.Release()
		if err != nil && !c.p.lww {
			mu.Unlock()
			return nil, fmt.Errorf("consistency: push %v: %w", it.Page, err)
		}
		e, _ := tab.Lookup(it.Page)
		resp.Items[i] = wire.UpdateItem{Page: it.Page, Version: e.Version, Stamp: e.Stamp, Origin: e.StampNode}
		if newer(e.Stamp, e.StampNode, it.Stamp, it.Origin) {
			if _, af := winning(tab, it.Page); af != nil {
				resp.Items[i].SetFrame(af)
				af.Release()
			}
		}
	}
	mu.Unlock()
	c.gossip(ctx, tab, accepted)
	return resp, nil
}

// newer reports whether stamp (s, n) supersedes (t, m) under last writer
// wins, ties broken by node ID.
func newer(s int64, n ktypes.NodeID, t int64, m ktypes.NodeID) bool {
	if s != t {
		return s > t
	}
	return n > m
}

// winning returns the page's entry and its last-writer-wins copy, the
// newest frame of its version chain (nil when it has none), with a
// reference the caller must Release. lwwApply changes both in one step,
// so the stamp read here is the copy's.
func winning(tab *pagedir.Table, page gaddr.Addr) (e pagedir.Entry, f *frame.Frame) {
	tab.With(page, func(p *pagedir.Page) {
		if e = p.Entry; p.Chain != nil {
			//khazana:frame-owner the winning copy is handed to the caller
			f, _, _ = p.Chain.Latest()
		}
	})
	return e, f
}

// lwwApply installs (f, stamp, origin) if it supersedes the page's stamp:
// f (borrowed) is stored and becomes the winning copy, or, when nil, the
// copy stored here does (a local write claiming its stamp). The caller
// holds the table's push lock.
func (c *Engine) lwwApply(tab *pagedir.Table, page gaddr.Addr, f *frame.Frame, stamp int64, origin ktypes.NodeID) (bool, error) {
	rec := tab.Touch(page)
	if e, _ := tab.Lookup(page); !newer(stamp, origin, e.Stamp, e.StampNode) {
		return false, nil
	}
	if f == nil {
		stored, ok := c.h.LoadPage(rec)
		if !ok {
			return false, fmt.Errorf("consistency: eventual claim %v: no local data", page)
		}
		defer stored.Release()
		f = stored
	} else if err := c.h.StorePage(rec, f); err != nil {
		return false, err
	}
	tab.With(page, func(p *pagedir.Page) {
		p.Stamp, p.StampNode = stamp, origin
		p.Version++
		p.State = pagedir.Shared
		f.SetVersion(p.Version)
		c.publishLocked(p, f)
	})
	return true, nil
}

// lwwInbound takes one pushed update (f borrowed): it parks while a local
// writer holds the page, replacing an older parked update, and applies
// otherwise. The caller holds the table's push lock.
func (c *Engine) lwwInbound(tab *pagedir.Table, page gaddr.Addr, f *frame.Frame, stamp int64, origin ktypes.NodeID) (bool, error) {
	if !tab.WriteLocked(page) {
		return c.lwwApply(tab, page, f, stamp, origin)
	}
	p := tab.Touch(page)
	if prev := p.Pending; prev == nil || newer(stamp, origin, prev.Stamp, prev.Origin) {
		if prev != nil {
			prev.Frame.Release()
		}
		//khazana:frame-owner the parked update holds it until applied or superseded
		p.Pending = &pagedir.Parked{Frame: f.Retain(), Stamp: stamp, Origin: origin}
	}
	return false, nil
}

// applyPending installs the update parked on page while its write lock
// was held. When the home applies it, it still owes the copyset a gossip
// round, or replicas that missed it would never converge.
func (c *Engine) applyPending(ctx context.Context, desc *region.Descriptor, tab *pagedir.Table, page gaddr.Addr) {
	p := tab.Rec(page)
	if p == nil {
		return
	}
	mu := tab.PushLock()
	mu.Lock()
	upd := p.Pending
	p.Pending = nil
	applied := false
	if upd != nil {
		var err error
		if applied, err = c.lwwApply(tab, page, upd.Frame, upd.Stamp, upd.Origin); err != nil {
			c.applyFailures.Add(1)
		}
	}
	mu.Unlock()
	if upd == nil {
		return
	}
	upd.Frame.Release()
	if applied && isHome(c.h, desc) {
		c.gossip(ctx, tab, []gaddr.Addr{page})
	}
}

// claim is an eventual write's release: the batch's dirty pages claim one
// clock stamp, and a page whose claim loses to a newer update that
// arrived during the hold rolls back to the winning copy. The home
// gossips the claimed pages; a replica pushes them home in one
// UpdateBatch. It returns the per-page errors, nil when none failed.
func (c *Engine) claim(ctx context.Context, desc *region.Descriptor, tab *pagedir.Table, pages []gaddr.Addr, dirty []bool) []error {
	stamp, self := c.h.Clock(), c.h.Self()
	var errs []error
	setErr := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(pages))
		}
		errs[i] = err
	}
	var claimed []gaddr.Addr
	var at []int // of the claimed pages in pages
	mu := tab.PushLock()
	mu.Lock()
	for i, p := range pages {
		if !isDirty(dirty, i) {
			continue
		}
		won, err := c.lwwApply(tab, p, nil, stamp, self)
		switch {
		case err != nil:
			setErr(i, err)
		case won:
			claimed = append(claimed, p)
			at = append(at, i)
		default:
			// A newer update won while we were writing: our bytes lose,
			// and the copy rolls back to the winning one.
			if _, f := winning(tab, p); f != nil {
				if err := c.h.StorePage(tab.Touch(p), f); err != nil {
					setErr(i, err)
				}
				f.Release()
			}
		}
	}
	mu.Unlock()
	if isHome(c.h, desc) {
		c.gossip(ctx, tab, claimed)
		return errs
	}
	rel := make([]Redelivery, len(claimed))
	for j, p := range claimed {
		rel[j] = Redelivery{Page: p, Mode: ktypes.LockWrite, Dirty: true}
	}
	for j, err := range c.deliver(ctx, desc, tab, rel) {
		if err != nil {
			setErr(at[j], err)
		}
	}
	return errs
}

// gossip forwards the winning copy of each page to every other replica
// site in the page's copyset but its last writer: one UpdateBatch RPC per
// destination covering all of that destination's pages. Every item
// shares its page's refcounted frame across the whole fan-out, so a push
// to several replicas never copies the page contents. Best-effort, as
// gossip has always been: a site that misses an update converges on the
// next accepted one (or stays a version old, which this protocol
// permits), but each missed page counts a push failure so divergence
// stays observable.
func (c *Engine) gossip(ctx context.Context, tab *pagedir.Table, pages []gaddr.Addr) {
	self := c.h.Self()
	items := make([]wire.UpdateItem, 0, len(pages))
	frames := make([]*frame.Frame, 0, len(pages))
	defer func() {
		for _, f := range frames {
			f.Release()
		}
	}()
	dests := make(map[ktypes.NodeID][]int)
	var order []ktypes.NodeID
	for _, page := range pages {
		e, f := winning(tab, page)
		if f == nil {
			continue
		}
		items = append(items, wire.UpdateItem{Page: page, Stamp: e.Stamp, Origin: e.StampNode})
		frames = append(frames, f)
		for _, n := range e.Copyset {
			if n == self || n == e.StampNode {
				continue
			}
			if _, seen := dests[n]; !seen {
				order = append(order, n)
			}
			dests[n] = append(dests[n], len(items)-1)
		}
	}
	FanOut(order, maxReplicateFanout, func(n ktypes.NodeID) {
		idxs := dests[n]
		batch := &wire.UpdateBatch{From: self, Items: make([]wire.UpdateItem, len(idxs))}
		for j, i := range idxs {
			batch.Items[j] = items[i]
			batch.Items[j].SetFrame(frames[i])
		}
		_, err := c.h.Request(ctx, n, batch)
		batch.ReleaseFrames()
		if err != nil {
			c.pushFailures.Add(uint64(len(idxs)))
		}
	})
}
