package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"khazana/internal/addrmap"
	"khazana/internal/consistency"
	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/pagedir"
	"khazana/internal/region"
	"khazana/internal/security"
	"khazana/internal/telemetry"
	"khazana/internal/transport"
	"khazana/internal/wire"
)

// Operation errors.
var (
	// ErrNotAllocated reports access to a region without allocated
	// storage ("a region cannot be accessed until physical storage is
	// explicitly allocated to it", §2).
	ErrNotAllocated = errors.New("core: region not allocated")
	// ErrBadLock reports an unknown or mismatched lock context.
	ErrBadLock = errors.New("core: invalid lock context")
	// ErrOutOfRange reports an access outside the locked range.
	ErrOutOfRange = errors.New("core: access outside locked range")
	// ErrNotRegionStart reports an operation addressed to the middle of
	// a region where its start is required.
	ErrNotRegionStart = errors.New("core: address is not a region start")
)

// Reserve reserves a contiguous range of global address space as a new
// region with the given attributes (§2). The region's home is this node.
func (n *Node) Reserve(ctx context.Context, size uint64, attrs region.Attrs, principal ktypes.Principal) (gaddr.Addr, error) {
	attrs = attrs.Normalize()
	if err := attrs.Validate(); err != nil {
		return gaddr.Addr{}, err
	}
	if size == 0 {
		return gaddr.Addr{}, errors.New("core: zero-size region")
	}
	// Round the region up to whole pages.
	ps := uint64(attrs.PageSize)
	size = (size + ps - 1) / ps * ps
	if attrs.ACL.Owner == "" && principal != ktypes.Anonymous {
		attrs.ACL.Owner = principal
	}

	start, err := n.carve(ctx, size, ps)
	if err != nil {
		return gaddr.Addr{}, err
	}
	desc := &region.Descriptor{
		Range:     gaddr.Range{Start: start, Size: size},
		Attrs:     attrs,
		Home:      []ktypes.NodeID{n.cfg.ID},
		Epoch:     1,
		Allocated: false,
	}
	if err := n.mapInsert(ctx, desc.Range, desc.Home); err != nil {
		return gaddr.Addr{}, fmt.Errorf("core: record region: %w", err)
	}
	n.putAuthDesc(desc)
	n.rdir.Insert(desc)
	n.ringAnnounce(ctx, desc)
	return start, nil
}

// carve takes size bytes from the local pool of reserved-but-unused
// address space, refilling the pool from the cluster manager / map home
// when exhausted (§3.1).
func (n *Node) carve(ctx context.Context, size, align uint64) (gaddr.Addr, error) {
	n.chunkMu.Lock()
	defer n.chunkMu.Unlock()
	for attempt := 0; attempt < 2; attempt++ {
		if n.chunkOK {
			start, err := n.chunk.Start.AlignUp(align)
			if err == nil {
				used, ok := n.chunk.Start.Distance(start)
				if ok && used+size <= n.chunk.Size {
					n.chunk.Start = start.MustAdd(size)
					n.chunk.Size -= used + size
					return start, nil
				}
			}
		}
		// Refill: request a fresh chunk covering at least size.
		want := n.cfg.ChunkSize
		if size > want {
			want = size
		}
		//khazana:block-ok chunk refill must hold chunkMu so concurrent carves see the new chunk exactly once; the refill RPC to the map home is rare (once per ChunkSize of allocations)
		r, err := n.mapReserveRange(ctx, want, align)
		if err != nil {
			return gaddr.Addr{}, fmt.Errorf("core: reserve space: %w", err)
		}
		n.chunk, n.chunkOK = r, true
	}
	return gaddr.Addr{}, errors.New("core: could not carve region from chunk")
}

// Unreserve releases a region and any storage allocated to it (§2).
//
// Invariant: once Unreserve returns nil, this node never resolves the
// region again — its directory and ring-table entries are purged and the
// start is tombstoned (forgetRegion) before the return, and the address
// map entry is already gone. Every other node converges when the
// asynchronous destroy cast reaches the bucket owners; until then a stale
// copy costs its user one trip to the old home, whose definite
// no-such-region answer makes that node forget the region too.
func (n *Node) Unreserve(ctx context.Context, start gaddr.Addr, principal ktypes.Principal) error {
	desc, err := n.lookupRegion(ctx, start)
	if err != nil {
		return err
	}
	if desc.Range.Start != start {
		return ErrNotRegionStart
	}
	if err := desc.Attrs.ACL.Check(principal, security.PermAdmin); err != nil {
		return err
	}
	home, err := desc.PrimaryHome()
	if err != nil {
		return err
	}
	if home != n.cfg.ID {
		fresh, err := n.forwardOp(ctx, desc, func() wire.Msg {
			return &wire.CUnreserve{Start: start, Principal: principal}
		})
		if err != nil {
			return err
		}
		if fresh == nil {
			n.forgetRegion(start)
			return nil
		}
		// The refresh says this node is now the home: fall through.
		desc = fresh
	}
	// Home-side teardown: drop pages, descriptor, every per-region table
	// keyed by this start, and the map entry.
	n.dropRegionPages(ctx, desc, ktypes.NilNode)
	n.authDescs.Delete(start)
	n.access.forget(start)
	n.repl.Forget(start)
	n.forgetRegion(start)
	n.ringDestroy(ctx, desc)
	if err := n.mapRemove(ctx, start); err != nil {
		return fmt.Errorf("core: unrecord region: %w", err)
	}
	return nil
}

// Allocate attaches physical storage to a reserved region (§2). Storage is
// allocated lazily page by page; this flips the descriptor's Allocated
// gate.
func (n *Node) Allocate(ctx context.Context, start gaddr.Addr, principal ktypes.Principal) error {
	return n.setAllocated(ctx, start, principal, true)
}

// Free releases a region's physical storage but keeps the reservation
// (§2).
func (n *Node) Free(ctx context.Context, start gaddr.Addr, principal ktypes.Principal) error {
	return n.setAllocated(ctx, start, principal, false)
}

func (n *Node) setAllocated(ctx context.Context, start gaddr.Addr, principal ktypes.Principal, alloc bool) error {
	desc, err := n.lookupRegion(ctx, start)
	if err != nil {
		return err
	}
	if desc.Range.Start != start {
		return ErrNotRegionStart
	}
	if err := desc.Attrs.ACL.Check(principal, security.PermWrite); err != nil {
		return err
	}
	home, err := desc.PrimaryHome()
	if err != nil {
		return err
	}
	if home != n.cfg.ID {
		local, err := n.forwardUpdate(ctx, desc, func() wire.Msg {
			if alloc {
				return &wire.CAllocate{Start: start, Principal: principal}
			}
			return &wire.CFree{Start: start, Principal: principal}
		})
		if err != nil || !local {
			return err
		}
	}
	out := n.updateAuthDesc(start, func(d *region.Descriptor) bool {
		d.Allocated = alloc
		d.Epoch++
		return true
	})
	if out == nil {
		return fmt.Errorf("%w: %v not homed here", ErrInaccessible, start)
	}
	n.rdir.Insert(out)
	n.ringAnnounce(ctx, out)
	if !alloc {
		n.dropRegionPages(ctx, out, n.cfg.ID)
	}
	return nil
}

// dropRegionPages discards local storage and invalidates remote copies for
// every page of a region: one InvalidateBatch per sharer, in parallel, so
// an unreachable sharer delays the teardown by one timeout however many
// pages it shared. Teardown completes even if the requesting client goes
// away mid-operation, so the deadline derives from the caller's values but
// not its cancellation. The batches name newOwner as the pages' owner; a
// teardown names no owner (NilNode), and a sharer then forgets the region.
func (n *Node) dropRegionPages(ctx context.Context, desc *region.Descriptor, newOwner ktypes.NodeID) {
	bySharer := make(map[ktypes.NodeID][]wire.InvalidateItem)
	tab := n.dir.At(desc.Range.Start)
	if tab != nil {
		tab.Each(func(p *pagedir.Page) {
			for _, sharer := range p.Copyset {
				if sharer != n.cfg.ID {
					bySharer[sharer] = append(bySharer[sharer], wire.InvalidateItem{Page: p.Page, Version: p.Version})
				}
			}
		})
	}
	sharers := make([]ktypes.NodeID, 0, len(bySharer))
	for sharer := range bySharer {
		sharers = append(sharers, sharer)
	}
	base := context.WithoutCancel(ctx)
	consistency.FanOut(sharers, maxTeardownFanout, func(sharer ktypes.NodeID) {
		reqCtx, cancel := context.WithTimeout(base, teardownInvalidateTimeout)
		defer cancel()
		//khazana:ignore-err best-effort invalidation during teardown; an unreachable sharer cannot serve the region after the map entry is gone
		_, _ = n.tr.Request(reqCtx, sharer, &wire.InvalidateBatch{NewOwner: newOwner, Items: bySharer[sharer]})
	})
	if tab != nil && newOwner != ktypes.NilNode {
		// A Free keeps the region, and so its table and the lock slots of
		// live holds; every copy goes, a pinned one too, so the next grant
		// reads zeroes. A teardown's table leaves with the region, in the
		// forgetRegion that follows.
		n.clearTable(tab, n.store.DeletePage)
	}
	// A page stored on disk but not touched since a restart has no record.
	for off, ps := uint64(0), uint64(desc.Attrs.PageSize); off < desc.Range.Size; off += ps {
		n.store.Disk().Delete(desc.Range.Start.MustAdd(off))
	}
}

// clearTable discards the directory entries and version chains of tab's
// pages, and their local copies through drop; the lock slots stay.
func (n *Node) clearTable(tab *pagedir.Table, drop func(*pagedir.Page)) {
	var recs []*pagedir.Page
	tab.Each(func(p *pagedir.Page) {
		if p.Chain != nil {
			p.Chain.Close()
			p.Chain = nil
		}
		recs = append(recs, p)
	})
	for _, p := range recs {
		tab.Delete(p.Page)
		drop(p)
	}
}

// table returns the region's page table, made on its first touch here.
func (n *Node) table(desc *region.Descriptor) *pagedir.Table {
	return n.dir.Table(desc.Range.Start, desc.Range.Size, uint64(desc.Attrs.PageSize))
}

// A region teardown sends at most maxTeardownFanout InvalidateBatch RPCs at
// once and waits teardownInvalidateTimeout for each sharer to confirm.
const (
	maxTeardownFanout         = 8
	teardownInvalidateTimeout = 2 * time.Second
)

// GetAttr returns the attributes of the region containing addr (§2): the
// published descriptor, read-only (see region.Descriptor).
func (n *Node) GetAttr(ctx context.Context, addr gaddr.Addr) (*region.Descriptor, error) {
	return n.lookupRegion(ctx, addr)
}

// SetAttr updates a region's attributes (§2). The update is applied at the
// region's home and the descriptor epoch advances.
func (n *Node) SetAttr(ctx context.Context, start gaddr.Addr, attrs region.Attrs, principal ktypes.Principal) error {
	desc, err := n.lookupRegion(ctx, start)
	if err != nil {
		return err
	}
	if desc.Range.Start != start {
		return ErrNotRegionStart
	}
	if err := desc.Attrs.ACL.Check(principal, security.PermAdmin); err != nil {
		return err
	}
	attrs = attrs.Normalize()
	if err := attrs.Validate(); err != nil {
		return err
	}
	if attrs.PageSize != desc.Attrs.PageSize {
		return errors.New("core: page size is fixed at reservation time")
	}
	home, err := desc.PrimaryHome()
	if err != nil {
		return err
	}
	if home != n.cfg.ID {
		local, err := n.forwardUpdate(ctx, desc, func() wire.Msg {
			return &wire.CSetAttr{Start: start, Attrs: attrs, Principal: principal}
		})
		if err != nil || !local {
			return err
		}
	}
	// The published descriptor must not share the caller's ACL entries.
	attrs.ACL.Entries = append([]security.Entry(nil), attrs.ACL.Entries...)
	out := n.updateAuthDesc(start, func(d *region.Descriptor) bool {
		d.Attrs = attrs
		d.Epoch++
		return true
	})
	if out == nil {
		return fmt.Errorf("%w: %v not homed here", ErrInaccessible, start)
	}
	n.rdir.Insert(out)
	n.ringAnnounce(ctx, out)
	return nil
}

// Lock locks part of a region in the given mode, returning the lock
// context used by subsequent reads and writes (§2). Acquire-side errors
// surface to the client (§3.5).
func (n *Node) Lock(ctx context.Context, rng gaddr.Range, mode ktypes.LockMode, principal ktypes.Principal) (*LockContext, error) {
	if !mode.Valid() {
		return nil, fmt.Errorf("core: invalid lock mode %d", mode)
	}
	if rng.Size == 0 {
		return nil, errors.New("core: empty lock range")
	}
	// The context comes first: it is the storage the op span lives in. The
	// span roots the trace (or extends a remote caller's); every RPC below
	// inherits its context through the transport envelope. Its duration is
	// the grant latency, so one clock read at each end feeds both.
	lc := &LockContext{mode: mode, node: n}
	ctx, fl := telemetry.StartSpanIn(ctx, &lc.lockSpan, n.rec, uint32(n.cfg.ID), "op.lock")
	err := n.grant(ctx, lc, rng, principal)
	took := fl.Finish()
	if err != nil {
		return nil, err
	}
	n.mLockLatency.Observe(uint64(took))
	return lc, nil
}

// grant resolves the region of rng, acquires and pins its pages for lc and
// registers the context; on error nothing stays held.
func (n *Node) grant(ctx context.Context, lc *LockContext, rng gaddr.Range, principal ktypes.Principal) error {
	mode := lc.mode
	n.trace("1:obtain-region-descriptor")
	desc, err := n.lookupRegion(ctx, rng.Start)
	if err != nil {
		return err
	}
	if !desc.Range.ContainsRange(rng) {
		return fmt.Errorf("core: lock range %v escapes region %v", rng, desc.Range)
	}
	if err := desc.Attrs.ACL.CheckMode(principal, mode); err != nil {
		return err
	}
	if desc, err = n.allocatedDesc(ctx, desc); err != nil {
		return err
	}
	off, _ := desc.Range.OffsetOf(rng.Start)
	pages := desc.Range.AppendPages(lc.pageBuf[:0], off, rng.Size, uint64(desc.Attrs.PageSize))
	n.trace("4:page-directory")
	n.trace("5:invoke-consistency-manager")

	cm, err := n.cmFor(desc)
	if err != nil {
		return err
	}
	// The whole page set — one page included — goes through the CM's batch
	// API: one pipelined exchange per home, not one round trip per page.
	acquired, err := n.acquireBatchWithFailover(ctx, &desc, cm, pages, mode)
	if err != nil {
		// Roll back whatever subset the batch left held. Pages are not
		// pinned yet, so only the locks need releasing. Rollback must run
		// even when the caller's ctx is already canceled — holding
		// half-acquired page locks would wedge the region — so detach from
		// cancellation but keep request values.
		rbCtx := context.WithoutCancel(ctx)
		//khazana:ignore-err clean-dirty=false release of just-acquired pages cannot lose data; the locks die with us either way
		_ = cm.ReleaseBatch(rbCtx, desc, acquired, mode, nil)
		if isNoSuchRegion(err) {
			n.forgetRegion(desc.Range.Start)
		}
		return err
	}
	tab := n.table(desc)
	for _, page := range pages {
		n.store.Pin(tab.Touch(page))
	}
	n.trace("11:lock-granted")

	lc.id = n.nextLID.Add(1)
	lc.off, lc.size = off, rng.Size
	lc.desc = desc
	lc.tab = tab
	lc.pages = pages
	lc.views = lc.viewBuf[:0]
	ls := n.lockShardFor(lc.id)
	ls.mu.Lock()
	ls.ctx[lc.id] = lc
	ls.mu.Unlock()
	n.stats.LocksGranted.Add(1)
	n.mBatchPages.Observe(uint64(len(pages)))
	return nil
}

// allocatedDesc passes the §2 allocation gate: it returns desc if it shows
// allocated storage. A cached or ring-served copy can trail an Allocate
// that already committed at the home, so an unallocated copy is re-read
// from the home once before the gate fails.
func (n *Node) allocatedDesc(ctx context.Context, desc *region.Descriptor) (*region.Descriptor, error) {
	if desc.Allocated {
		return desc, nil
	}
	fresh, err := n.refreshDescriptor(ctx, desc)
	if err != nil || !fresh.Allocated {
		return nil, ErrNotAllocated
	}
	return fresh, nil
}

// acquireBatchWithFailover acquires a page set through the CM batch path,
// refreshing stale descriptors and promoting a secondary home if the
// primary is unreachable (§3.5), retrying only the pages not yet held. It
// returns every page that ended up acquired; on error the caller must
// release them to roll back.
func (n *Node) acquireBatchWithFailover(ctx context.Context, desc **region.Descriptor, cm consistency.CM, pages []gaddr.Addr, mode ktypes.LockMode) ([]gaddr.Addr, error) {
	n.trace("6:request-credentials")
	acquired, err := cm.AcquireBatch(ctx, *desc, pages, mode)
	if err == nil {
		n.trace("10:ownership-granted")
		return acquired, nil
	}
	remaining := missingPages(pages, acquired)
	// Stale home pointer: refresh the descriptor and retry once (§3.2).
	if fresh, ferr := n.refreshDescriptor(ctx, *desc); ferr == nil && fresh.Epoch > (*desc).Epoch {
		*desc = fresh
		more, retryErr := cm.AcquireBatch(ctx, *desc, remaining, mode)
		acquired = append(acquired, more...)
		if retryErr == nil {
			n.trace("10:ownership-granted")
			return acquired, nil
		}
		err = retryErr
		remaining = missingPages(remaining, more)
	}
	// Unreachable home: try promoting a secondary (§3.5).
	if errors.Is(err, transport.ErrUnreachable) || isUnreachable(err) {
		if promoted, perr := n.promoteHome(ctx, *desc); perr == nil {
			*desc = promoted
			more, retryErr := cm.AcquireBatch(ctx, *desc, remaining, mode)
			acquired = append(acquired, more...)
			if retryErr == nil {
				n.trace("10:ownership-granted")
				return acquired, nil
			}
			err = retryErr
		}
	}
	return acquired, err
}

// missingPages returns the pages (in order) absent from held.
func missingPages(pages, held []gaddr.Addr) []gaddr.Addr {
	if len(held) == 0 {
		return pages
	}
	heldSet := make(map[gaddr.Addr]bool, len(held))
	for _, p := range held {
		heldSet[p] = true
	}
	out := make([]gaddr.Addr, 0, len(pages)-len(held))
	for _, p := range pages {
		if !heldSet[p] {
			out = append(out, p)
		}
	}
	return out
}

// isUnreachable matches unreachable errors that crossed a process
// boundary and lost their type.
func isUnreachable(err error) bool {
	return err != nil && (errors.Is(err, transport.ErrUnreachable) ||
		strings.Contains(err.Error(), "unreachable"))
}

// isStaleHome matches failures that mean the cached descriptor pointed
// at the wrong home: the node is unreachable, or it answered that the
// region is not homed there (it migrated or failed over).
func isStaleHome(err error) bool {
	return err != nil && (isUnreachable(err) ||
		strings.Contains(err.Error(), "not homed here"))
}

// isNoSuchRegion matches the address map's definite answer that no region
// contains an address — the map is the source of truth (§3.1) — including
// after the error crossed a process boundary and lost its type.
func isNoSuchRegion(err error) bool {
	return err != nil && (errors.Is(err, addrmap.ErrNotFound) ||
		strings.Contains(err.Error(), addrmap.ErrNotFound.Error()))
}

// ackRequest sends msg to a node and folds the Ack-carried error into
// the Go error.
func (n *Node) ackRequest(ctx context.Context, to ktypes.NodeID, msg wire.Msg) error {
	resp, err := n.tr.Request(ctx, to, msg)
	if err != nil {
		return err
	}
	if ack, ok := resp.(*wire.Ack); ok && ack.Err != "" {
		return errors.New(ack.Err)
	}
	return nil
}

// forwardOp forwards a home-side operation to the region's primary home.
// On a stale-home failure (§3.2: "the use of a stale home pointer will
// simply result in a message being sent to a node that no longer is
// home") it drops the cached descriptor, re-resolves it — ring first —
// and retries once against the new home before giving up.
//
// Returns (nil, nil) on success; (fresh, nil) when the refresh reveals
// this node became the home, so the caller falls through to its local
// path; (nil, err) on failure. build constructs a fresh message per
// attempt so a retry never reuses a consumed frame.
func (n *Node) forwardOp(ctx context.Context, desc *region.Descriptor, build func() wire.Msg) (*region.Descriptor, error) {
	home, err := desc.PrimaryHome()
	if err != nil {
		return nil, err
	}
	start := desc.Range.Start
	err = n.ackRequest(ctx, home, build())
	if err == nil {
		n.rdir.Remove(start) // cached copy is now stale
		return nil, nil
	}
	if isNoSuchRegion(err) {
		n.forgetRegion(start)
		return nil, err
	}
	if !isStaleHome(err) {
		return nil, err
	}
	fresh, ferr := n.refreshDescriptor(ctx, desc)
	if ferr != nil {
		return nil, err
	}
	newHome, herr := fresh.PrimaryHome()
	if herr != nil {
		return nil, err
	}
	if newHome == n.cfg.ID {
		return fresh, nil
	}
	if newHome != home {
		if rerr := n.ackRequest(ctx, newHome, build()); rerr == nil {
			n.rdir.Remove(start)
			return nil, nil
		}
	}
	return nil, err
}

// forwardUpdate forwards a descriptor-changing operation (Allocate, Free,
// SetAttr). local reports that the refresh found this node to be the home
// now, so the caller applies the change itself. Otherwise, once the home
// has applied it, the descriptor is re-read from the home: the ring
// owners — this node may be one — learn the new epoch only when the
// home's asynchronous announce lands, and the caller's next lookup must
// see its own update.
func (n *Node) forwardUpdate(ctx context.Context, desc *region.Descriptor, build func() wire.Msg) (local bool, err error) {
	fresh, err := n.forwardOp(ctx, desc, build)
	if err != nil || fresh != nil {
		return fresh != nil, err
	}
	//khazana:ignore-err the update itself succeeded; a failed re-read only leaves the next lookup to resolve the region the slow way
	_, _ = n.refreshDescriptor(ctx, desc)
	return false, nil
}

// lockByID resolves a lock context.
func (n *Node) lockByID(id uint64) (*LockContext, error) {
	ls := n.lockShardFor(id)
	ls.mu.Lock()
	defer ls.mu.Unlock()
	lc, ok := ls.ctx[id]
	if !ok {
		return nil, ErrBadLock
	}
	return lc, nil
}

// Read copies n bytes starting at addr out of a locked range (§2: read
// subparts of a region by presenting its lock context). The result is a
// private copy; ReadView serves the same bytes without copying.
func (n *Node) Read(lc *LockContext, addr gaddr.Addr, count uint64) ([]byte, error) {
	if lc == nil || lc.node != n {
		return nil, ErrBadLock
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.freed {
		return nil, ErrBadLock
	}
	if count == 0 {
		return nil, nil
	}
	if !lc.Range().ContainsRange(gaddr.Range{Start: addr, Size: count}) {
		return nil, ErrOutOfRange
	}
	//khazana:block-ok lc.mu is per lock context; a disk-tier promotion under it stalls only this context's own callers (§3.4 tiered store)
	return n.readLocked(lc, addr, count)
}

// readLocked copies count bytes at addr into a fresh buffer. Caller
// holds lc.mu and has validated the range.
func (n *Node) readLocked(lc *LockContext, addr gaddr.Addr, count uint64) ([]byte, error) {
	out := make([]byte, count)
	ps := uint64(lc.desc.Attrs.PageSize)
	for covered := uint64(0); covered < count; {
		cur := addr.MustAdd(covered)
		page := cur.AlignDown(ps)
		pageOff := cur.Offset(ps)
		chunk := ps - pageOff
		if chunk > count-covered {
			chunk = count - covered
		}
		f, ok := n.store.GetPage(lc.tab.Touch(page))
		if ok {
			copy(out[covered:covered+chunk], f.Bytes()[pageOff:])
			f.Release()
		}
		// Missing page: never written; reads as zeroes (already zero).
		covered += chunk
	}
	n.trace("12-13:data-supplied")
	return out, nil
}

// ReadView returns count bytes at addr as a view aliasing the locally
// cached page frame — no copy is made. The view stays valid until the
// lock context is unlocked (the context pins the frame) and must be
// treated as read-only; callers that need the bytes past Unlock must
// copy them or use Read. Requests that span a page boundary fall back
// to the copying path, since the cache is page-granular and a
// contiguous multi-page view would require stitching.
func (n *Node) ReadView(lc *LockContext, addr gaddr.Addr, count uint64) ([]byte, error) {
	if lc == nil || lc.node != n {
		return nil, ErrBadLock
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.freed {
		return nil, ErrBadLock
	}
	if count == 0 {
		return nil, nil
	}
	if !lc.Range().ContainsRange(gaddr.Range{Start: addr, Size: count}) {
		return nil, ErrOutOfRange
	}
	// One plain increment (batched to the registry at Unlock) is the
	// entire telemetry cost of the cached-read hot path: no atomics, no
	// clock reads, no spans (TestCachedReadAllocGate holds it allocation-free).
	lc.viewCount++
	ps := uint64(lc.desc.Attrs.PageSize)
	pageOff := addr.Offset(ps)
	if pageOff+count > ps {
		//khazana:block-ok lc.mu is per lock context; a disk-tier promotion under it stalls only this context's own callers (§3.4 tiered store)
		return n.readLocked(lc, addr, count)
	}
	page := addr.AlignDown(ps)
	//khazana:block-ok lc.mu is per lock context; a disk-tier promotion under it stalls only this context's own callers (§3.4 tiered store)
	f, ok := n.store.GetPage(lc.tab.Touch(page))
	if !ok {
		// Never written: an allocated page reads as zeroes.
		f = frame.AllocZero(int(ps))
	}
	// Repeated views of the same hot page pin one reference, not one per
	// call, so a read loop does not grow the context without bound.
	if k := len(lc.views); k > 0 && lc.views[k-1] == f {
		f.Release()
	} else {
		//khazana:frame-owner pinned in the lock context, released at Unlock
		lc.views = append(lc.views, f)
	}
	n.trace("12-13:data-supplied")
	return f.Bytes()[pageOff : pageOff+count : pageOff+count], nil
}

// Write copies data into a locked range at addr (§2).
func (n *Node) Write(lc *LockContext, addr gaddr.Addr, data []byte) error {
	if lc == nil || lc.node != n {
		return ErrBadLock
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.freed {
		return ErrBadLock
	}
	if !lc.mode.Writes() {
		return fmt.Errorf("%w: lock mode %v does not permit writes", ErrBadLock, lc.mode)
	}
	if len(data) == 0 {
		return nil
	}
	if !lc.Range().ContainsRange(gaddr.Range{Start: addr, Size: uint64(len(data))}) {
		return ErrOutOfRange
	}
	ps := uint64(lc.desc.Attrs.PageSize)
	tab := lc.tab
	for covered := uint64(0); covered < uint64(len(data)); {
		cur := addr.MustAdd(covered)
		page := cur.AlignDown(ps)
		pageOff := cur.Offset(ps)
		chunk := ps - pageOff
		if chunk > uint64(len(data))-covered {
			chunk = uint64(len(data)) - covered
		}
		var f *frame.Frame
		p := tab.Touch(page)
		//khazana:block-ok lc.mu is per lock context; a disk-tier promotion under it stalls only this context's own callers (§3.4 tiered store)
		switch got, ok := n.store.GetPage(p); {
		case chunk == ps:
			// Full-page overwrite: no need to read the old contents.
			if ok {
				got.Release()
			}
			f = frame.Alloc(int(ps))
		case ok:
			// Copy-on-write: the store (and any concurrent readers)
			// share the frame, so mutate a private copy.
			f = got.Exclusive()
		default:
			f = frame.AllocZero(int(ps))
		}
		copy(f.Bytes()[pageOff:], data[covered:covered+chunk])
		err := n.store.PutPage(p, f)
		f.Release()
		if err != nil {
			return err
		}
		if lc.dirtyMarks == nil {
			lc.dirtyMarks = &lc.dirtyBuf[0]
			if len(lc.pages) > lockInlinePages {
				lc.dirtyMarks = &make([]bool, len(lc.pages))[0]
			}
		}
		// Pages are consecutive from lc.pages[0].
		if off, _ := lc.pages[0].Distance(page); !lc.dirty()[off/ps] {
			lc.dirty()[off/ps] = true
			tab.Update(page, func(e *pagedir.Entry) { e.Dirty = true })
		}
		covered += chunk
	}
	return nil
}

// Unlock releases a lock context. Release-side errors are not surfaced;
// they are retried in the background until they succeed (§3.5). A clean
// CREW release away from the home is one-way (wire.OneWay): Unlock
// returns once its ReleaseBatch is written to the link, before the home
// applies it. A send that fails is retried; a failure at the home is
// counted there (consistency.release_oneway_failed), not retried.
func (n *Node) Unlock(ctx context.Context, lc *LockContext) error {
	if lc == nil || lc.node != n {
		return ErrBadLock
	}
	lc.mu.Lock()
	if lc.freed {
		lc.mu.Unlock()
		return ErrBadLock
	}
	lc.freed = true
	views := lc.views
	lc.views = nil
	viewCount := lc.viewCount
	lc.viewCount = 0
	lc.mu.Unlock()
	if viewCount > 0 {
		n.mReadViews.Add(viewCount)
	}
	// Unpin the frames backing outstanding ReadView results; the views
	// become invalid here by contract.
	for _, f := range views {
		f.Release()
	}

	ls := n.lockShardFor(lc.id)
	ls.mu.Lock()
	delete(ls.ctx, lc.id)
	ls.mu.Unlock()

	cm := n.cms[lc.desc.Attrs.Protocol]
	// The freed check above lets one Unlock through, so the second slot
	// is written exactly once. The span's duration is the release latency.
	ctx, fl := telemetry.StartSpanIn(ctx, &lc.unlockSpan, n.rec, uint32(n.cfg.ID), "op.unlock")
	// One release pipeline for the whole page set, with per-page status
	// back. §3.5: errors while releasing resources are not reflected to
	// the client; only the pages whose release failed go to the
	// background-retry queue, and their Dirty mark stays so the storage
	// system will not discard them before the retried release delivers
	// them (§3.4).
	dirtySet, tab := lc.dirty(), lc.tab
	errs := cm.ReleaseBatch(ctx, lc.desc, lc.pages, lc.mode, dirtySet)
	for i, page := range lc.pages {
		dirty := dirtySet != nil && dirtySet[i]
		var rerr error
		if errs != nil {
			rerr = errs[i]
		}
		if rerr != nil {
			n.queueRetry(retryOp{desc: lc.desc, page: page, mode: lc.mode, dirty: dirty})
		} else if dirty {
			tab.Update(page, func(e *pagedir.Entry) { e.Dirty = false })
		}
		p := tab.Touch(page)
		_ = n.store.Unpin(p)
		if tab.Dropped() {
			// The region was torn down during the hold: the copy kept for
			// this holder goes with its last pin.
			n.store.Mem().DeleteUnpinned(p)
		}
	}
	n.mReleaseLatency.Observe(uint64(fl.Finish()))
	return nil
}
