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

// ReleaseCM implements release consistency (paper §3.3: "for the address
// map tree nodes, we use a release consistent protocol", citing
// Gharachorloo et al.).
//
// Writes are applied to the local replica and propagated to the region's
// home only when the write lock is released; readers validate their cached
// copy against the home's version at acquire time. This gives the RC
// contract — an acquire observes all writes whose releases completed
// before it — without any global lock traffic on the critical path.
type ReleaseCM struct {
	h Host
}

// NewRelease creates the release-consistency manager for a node.
func NewRelease(h Host) *ReleaseCM { return &ReleaseCM{h: h} }

var _ CM = (*ReleaseCM)(nil)

// Protocol implements CM.
func (c *ReleaseCM) Protocol() region.Protocol { return region.Release }

// validate brings the local copy up to date with the home at acquire
// time, in one PageFetch that carries the version held here: a current
// copy costs the round trip and no bytes. Validation is mode-independent:
// readers and writers alike need a current copy before the lock is usable.
func (c *ReleaseCM) validate(ctx context.Context, desc *region.Descriptor, tab *pagedir.Table, page gaddr.Addr) error {
	if isHome(c.h, desc) {
		tab.Update(page, func(e *pagedir.Entry) {
			e.HomedLocal = true
			if e.State == pagedir.Invalid {
				e.State = pagedir.Shared
			}
		})
		return nil
	}
	rec := tab.Touch(page)
	var have uint64 // the held copy's version plus one, 0 for none
	if lf, ok := c.h.LoadPage(rec); ok {
		lf.Release()
		if e, ok := tab.Lookup(page); ok {
			have = e.Version + 1
		}
	}
	f, version, err := fetchFromHome(ctx, c.h, desc, page, have)
	if err != nil || f == nil { // nil: the copy here is current
		return err
	}
	defer f.Release()
	if err := c.h.StorePage(rec, f); err != nil {
		return fmt.Errorf("consistency: release store %v: %w", page, err)
	}
	tab.Update(page, func(e *pagedir.Entry) {
		e.State = pagedir.Shared
		e.Version = version
	})
	return nil
}

// SnapshotRead implements CM: the home's store copy is committed by
// construction (dirty data only lands there at release time), so a
// snapshot is one lock-free batch fetch from the home — or a local read
// when this node is the home. The protocol's relaxed semantics carry
// over: the snapshot observes the last released contents.
func (c *ReleaseCM) SnapshotRead(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, epoch uint64) ([]SnapPage, uint64, error) {
	if isHome(c.h, desc) {
		return snapshotFromStore(c.h, desc, pages), epoch, nil
	}
	home, err := homeOf(desc)
	if err != nil {
		return nil, 0, err
	}
	return snapshotFromHome(ctx, c.h, desc, home, pages, epoch)
}

// AcquireBatch implements CM page by page: release consistency has no
// home-side batch grant, and its acquire path is one validating fetch per
// page.
func (c *ReleaseCM) AcquireBatch(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, mode ktypes.LockMode) ([]gaddr.Addr, error) {
	tab := tableOf(c.h, desc)
	return acquireEach(ctx, tab, pages, mode, func(p gaddr.Addr) error { return c.validate(ctx, desc, tab, p) })
}

// ReleaseBatch implements CM. Dirty contents propagate to the home here —
// the essence of release consistency — in a single UpdateBatch RPC, with
// the per-item reply errors aligned so one failed store queues one
// background retry. Local locks always release.
func (c *ReleaseCM) ReleaseBatch(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, mode ktypes.LockMode, dirty []bool) []error {
	if len(pages) == 0 {
		return nil
	}
	tab := heldTable(c.h, desc)
	if tab == nil {
		return nil // the region was torn down here during the hold
	}
	defer func() {
		for _, p := range pages {
			tab.Release(p, mode)
		}
	}()
	if !mode.Writes() {
		return nil
	}
	if isHome(c.h, desc) {
		for i, p := range pages {
			if isDirty(dirty, i) {
				tab.Update(p, func(e *pagedir.Entry) {
					e.Version++
					e.HomedLocal = true
				})
			}
		}
		return nil
	}
	var idx []int // of the dirty pages
	for i := range pages {
		if isDirty(dirty, i) {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return nil
	}
	home, err := homeOf(desc)
	if err != nil {
		return batchErrs(len(pages), err)
	}
	batch := &wire.UpdateBatch{From: c.h.Self(), Items: make([]wire.UpdateItem, len(idx))}
	frames := make([]*frame.Frame, len(idx))
	for j, i := range idx {
		batch.Items[j] = wire.UpdateItem{Page: pages[i], Origin: c.h.Self()}
		// Frames stay referenced until the request (and its marshal)
		// completes, so the views in Data never dangle.
		//khazana:frame-owner released after the batch RPC below
		frames[j] = loadOrZero(c.h, desc, tab.Touch(pages[i]))
		batch.Items[j].Data = frames[j].Bytes()
	}
	defer func() {
		for _, f := range frames {
			f.Release()
		}
	}()
	resp, err := c.h.Request(ctx, home, batch)
	if err != nil {
		return batchErrs(len(pages), fmt.Errorf("consistency: release push batch (%d pages) to %v: %w", len(idx), home, err))
	}
	ub, ok := resp.(*wire.UpdateBatchResp)
	if !ok {
		return batchErrs(len(pages), fmt.Errorf("consistency: release push batch: unexpected reply %T", resp))
	}
	var errs []error
	for j, i := range idx {
		if j < len(ub.Errs) && ub.Errs[j] != "" {
			if errs == nil {
				errs = make([]error, len(pages))
			}
			errs[i] = fmt.Errorf("consistency: release push %v to %v: %s", pages[i], home, ub.Errs[j])
			continue
		}
		if j < len(ub.Versions) {
			v := ub.Versions[j]
			tab.Update(pages[i], func(e *pagedir.Entry) { e.Version = v })
		}
	}
	return errs
}

// Handle implements CM.
func (c *ReleaseCM) Handle(ctx context.Context, desc *region.Descriptor, from ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	switch msg := m.(type) {
	case *wire.PageFetch:
		if !isHome(c.h, desc) {
			return nil, ErrNotHome
		}
		return serveFetch(c.h, desc, msg), nil
	case *wire.SnapshotReqBatch:
		if !isHome(c.h, desc) {
			return nil, ErrNotHome
		}
		// The home's store copy is committed by construction: dirty data
		// only lands here at release time (applyPush), never mid-write.
		return snapshotReply(snapshotFromStore(c.h, desc, msg.Pages), msg.Epoch), nil
	case *wire.UpdateBatch:
		if !isHome(c.h, desc) {
			return nil, ErrNotHome
		}
		tab := tableOf(c.h, desc)
		resp := &wire.UpdateBatchResp{
			Errs:     make([]string, len(msg.Items)),
			Versions: make([]uint64, len(msg.Items)),
		}
		for i := range msg.Items {
			it := &msg.Items[i]
			f := it.TakeFrame()
			newVersion, err := c.applyPush(tab, it.Page, f, from)
			if f != nil {
				f.Release()
			}
			if err != nil {
				resp.Errs[i] = err.Error()
				continue
			}
			resp.Versions[i] = newVersion
		}
		return resp, nil
	//khazana:wire-default non-CM kinds are unroutable here by design
	default:
		return nil, fmt.Errorf("%w: release got %T", ErrUnknownMsg, m)
	}
}

// applyPush applies one pushed dirty page at the home — store, bump the
// version, and track the pusher as a copy holder — returning the page's
// new version. The frame is borrowed; nil means the pusher held no data
// (version bump only).
func (c *ReleaseCM) applyPush(tab *pagedir.Table, page gaddr.Addr, f *frame.Frame, from ktypes.NodeID) (uint64, error) {
	if f != nil {
		if err := c.h.StorePage(tab.Touch(page), f); err != nil {
			return 0, err
		}
	}
	var newVersion uint64
	tab.Update(page, func(e *pagedir.Entry) {
		e.HomedLocal = true
		e.Version++
		e.State = pagedir.Shared
		e.AddSharer(from)
		newVersion = e.Version
	})
	return newVersion, nil
}
