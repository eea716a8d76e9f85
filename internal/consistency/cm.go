// Package consistency implements Khazana's consistency management
// framework (paper §3.3): program modules called Consistency Managers
// (CMs) run at each replica site and cooperate to implement the required
// level of consistency among replicas. A Khazana node treats lock requests
// as indications of intent to access in the specified mode and obtains the
// local CM's permission before granting them; the CM checks for conflicts
// with ongoing operations and, if necessary, delays granting locks until
// the conflict is resolved.
//
// Three protocols ship, matching the paper, as policies of one Engine:
// CREW (Concurrent Read Exclusive Write, the prototype's only model, §5),
// release consistency (used for the address map tree nodes), and an
// eventual protocol for clients that tolerate temporarily out-of-date
// data. New protocols are plugged in by registering them (§5).
package consistency

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/pagedir"
	"khazana/internal/region"
	"khazana/internal/replog"
	"khazana/internal/telemetry"
	"khazana/internal/wire"
)

// Host is the node-side environment a consistency manager runs in: access
// to the local daemon's storage, page directory and peers. The daemon
// implements Host; tests provide a lightweight harness.
type Host interface {
	// Self returns the local node's ID.
	Self() ktypes.NodeID
	// Request performs an RPC to a peer daemon.
	Request(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error)
	// Pages returns the node's page directory: a page table per region,
	// whose records hold each page's directory entry, lock slot and
	// version chain.
	Pages() *pagedir.Dir
	// LoadPage returns the local copy of a page, if resident. The caller
	// owns the returned frame (one reference) and must Release it; the
	// frame is shared, so its contents are immutable.
	LoadPage(p *pagedir.Page) (*frame.Frame, bool)
	// StorePage replaces the local copy of a page. The frame is
	// borrowed: the host takes its own reference.
	StorePage(p *pagedir.Page, f *frame.Frame) error
	// DropPage discards the local copy of a page. A copy pinned by an
	// active lock context may survive locally (the holder keeps its
	// grant-time snapshot); callers mark the page invalid in the
	// directory so the next acquire refetches.
	DropPage(p *pagedir.Page)
	// Telemetry returns the node's metrics registry; nil disables
	// instrumentation (instruments resolved from nil are no-ops).
	Telemetry() *telemetry.Registry
	// Repl returns the node's replicated region-metadata log, never nil:
	// a replicated region's releases reach its secondary homes through it.
	Repl() *replog.Log
}

// CM is a consistency manager: the per-protocol module that mediates lock
// grants and replica updates for the regions using it.
type CM interface {
	// Protocol names the protocol this CM implements.
	Protocol() region.Protocol
	// AcquireBatch obtains lock credentials and a valid-enough local copy
	// of a set of pages (sorted ascending, all within desc; a single page
	// is a batch of one), per the protocol's semantics, in one pipelined
	// exchange where the protocol supports it. It returns the pages
	// actually acquired: on success that is pages itself; on error it is
	// the already-held subset, which the caller must release to roll back.
	AcquireBatch(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, mode ktypes.LockMode) ([]gaddr.Addr, error)
	// ReleaseBatch drops the locks on a set of pages; dirty, aligned with
	// pages, marks those whose local copies were modified under a
	// write-mode lock (nil means none were). It returns nil when every
	// release succeeded, else a slice aligned with pages holding the
	// per-page error (nil entries succeeded), so the caller can queue
	// background retries for just the failures.
	ReleaseBatch(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, mode ktypes.LockMode, dirty []bool) []error
	// Redeliver sends again the network half of releases whose local half
	// already ran: a release the §3.5 background retry redoes, or a dirty
	// copy pushed home before it leaves the node (§3.4). It returns nil
	// when every page was delivered, else the per-page errors aligned with
	// rel.
	Redeliver(ctx context.Context, desc *region.Descriptor, rel []Redelivery) []error
	// Handle processes protocol traffic arriving from a peer CM.
	Handle(ctx context.Context, desc *region.Descriptor, from ktypes.NodeID, m wire.Msg) (wire.Msg, error)
	// SnapshotRead returns committed copies of the given pages (sorted
	// ascending, all within desc) without taking locks: readers never
	// wait on or invalidate a writer's hold. epoch pins a consistent cut
	// for multi-request snapshots; epoch 0 lets the serving node choose
	// its current cut, returned for the caller to pin. The caller owns
	// every returned frame and must Release each.
	SnapshotRead(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, epoch uint64) ([]SnapPage, uint64, error)
}

// Redelivery is one page of a release to deliver again.
type Redelivery struct {
	Page  gaddr.Addr
	Mode  ktypes.LockMode
	Dirty bool
	// Frame is the copy of a page leaving the node, borrowed for the
	// call; nil delivers the copy held here, and a dirty page with none
	// left was already delivered. Under last writer wins the page's
	// winning copy goes, with its version and writer.
	Frame *frame.Frame
}

// SnapPage is one page of a snapshot read: an immutable committed copy
// and the page version it was committed at. The frame is owned by the
// caller of SnapshotRead.
type SnapPage struct {
	Page    gaddr.Addr
	Frame   *frame.Frame
	Version uint64
}

// Errors shared by protocol implementations.
var (
	// ErrNotHome reports protocol traffic sent to a node that is not the
	// region's home; the sender's descriptor was stale.
	ErrNotHome = errors.New("consistency: not the home node for this page")
	// ErrConflict reports a lock conflict that could not be resolved in
	// time; the client may retry.
	ErrConflict = errors.New("consistency: lock conflict")
	// ErrUnknownMsg reports CM traffic no protocol handler claims.
	ErrUnknownMsg = errors.New("consistency: unhandled message")
)

// Registry maps protocols to CM constructors. The paper emphasizes that
// "plugging in new protocols or consistency managers is only a matter of
// registering them" (§5).
type Registry struct {
	mu    sync.Mutex
	ctors map[region.Protocol]func(Host) CM
}

// NewRegistry returns a registry preloaded with the built-in protocols.
func NewRegistry() *Registry {
	r := &Registry{ctors: make(map[region.Protocol]func(Host) CM)}
	r.Register(region.CREW, func(h Host) CM { return NewCREW(h) })
	r.Register(region.Release, func(h Host) CM { return NewRelease(h) })
	r.Register(region.Eventual, func(h Host) CM { return NewEventual(h) })
	return r
}

// Register installs a constructor for a protocol, replacing any previous
// registration.
func (r *Registry) Register(p region.Protocol, ctor func(Host) CM) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ctors[p] = ctor
}

// Build instantiates one CM per registered protocol for the given host.
func (r *Registry) Build(h Host) map[region.Protocol]CM {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[region.Protocol]CM, len(r.ctors))
	for p, ctor := range r.ctors {
		out[p] = ctor(h)
	}
	return out
}

// Protocols lists registered protocols in stable order.
func (r *Registry) Protocols() []region.Protocol {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]region.Protocol, 0, len(r.ctors))
	for p := range r.ctors {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// batchErrs fills a per-page error slice with one shared error, for batch
// failures that sink the whole request (unreachable home, bad reply).
func batchErrs(n int, err error) []error {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = err
	}
	return errs
}

// zeroFill returns a page-sized zero frame, the contents of an allocated
// but never-written page. The caller owns the frame and must Release it.
func zeroFill(desc *region.Descriptor) *frame.Frame {
	return frame.AllocZero(int(desc.Attrs.PageSize))
}

// loadOrZero returns the local page frame, zero-filling for allocated
// pages never written. The caller owns the returned frame (one
// reference) and must Release it.
func loadOrZero(h Host, desc *region.Descriptor, p *pagedir.Page) *frame.Frame {
	if f, ok := h.LoadPage(p); ok {
		return f
	}
	return zeroFill(desc)
}

// tableOf returns the region's page table, made on the region's first
// touch here: a batch finds it once and reaches every page by arithmetic.
func tableOf(h Host, desc *region.Descriptor) *pagedir.Table {
	return h.Pages().Table(desc.Range.Start, desc.Range.Size, uint64(desc.Attrs.PageSize))
}

// heldTable returns the region's page table for a release: the one its
// acquire made, or nil once a teardown here dropped it. It never makes a
// table, so a release after a teardown brings nothing back.
func heldTable(h Host, desc *region.Descriptor) *pagedir.Table {
	return h.Pages().At(desc.Range.Start)
}

// isDirty reports dirty[i] of a ReleaseBatch dirty set.
func isDirty(dirty []bool, i int) bool { return dirty != nil && dirty[i] }

// FanOut runs fn once per target with at most limit concurrent calls and
// waits for all of them: the bounded worker-pool idiom shared by the
// invalidation, replication and region-teardown fan-outs. A single target
// — one sharer, one replica — runs on the caller's goroutine.
func FanOut[T any](targets []T, limit int, fn func(T)) {
	switch len(targets) {
	case 0:
		return
	case 1:
		fn(targets[0])
		return
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		sem <- struct{}{}
		go func(t T) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(t)
		}(t)
	}
	wg.Wait()
}

// isHome reports whether the local node is the region's primary home.
func isHome(h Host, desc *region.Descriptor) bool {
	home, err := desc.PrimaryHome()
	return err == nil && home == h.Self()
}

// homeOf returns the region's primary home or an error.
func homeOf(desc *region.Descriptor) (ktypes.NodeID, error) {
	home, err := desc.PrimaryHome()
	if err != nil {
		return ktypes.NilNode, fmt.Errorf("consistency: region %v: %w", desc.ID(), err)
	}
	return home, nil
}

// snapshotFromHome fetches snapshot copies of pages from the region's
// home in one SnapshotReqBatch round trip. The caller owns every frame in
// the result and must Release each; on error nothing is returned.
func snapshotFromHome(ctx context.Context, h Host, desc *region.Descriptor, home ktypes.NodeID, pages []gaddr.Addr, epoch uint64) ([]SnapPage, uint64, error) {
	req := &wire.SnapshotReqBatch{Pages: pages, Epoch: epoch, Requester: h.Self()}
	resp, err := h.Request(ctx, home, req)
	if err != nil {
		return nil, 0, err
	}
	batch, ok := resp.(*wire.SnapshotGrantBatch)
	if !ok || len(batch.Items) != len(pages) {
		wire.Recycle(resp)
		return nil, 0, fmt.Errorf("consistency: snapshot reply %T for %d pages", resp, len(pages))
	}
	out := make([]SnapPage, 0, len(pages))
	for i := range batch.Items {
		it := &batch.Items[i]
		if !it.OK {
			for _, sp := range out {
				sp.Frame.Release()
			}
			batch.ReleaseFrames()
			return nil, 0, fmt.Errorf("consistency: snapshot page %v: %s", pages[i], it.Err)
		}
		//khazana:frame-owner snapshot pages hand their frames to the SnapshotRead caller
		f := it.TakeFrame()
		if f == nil {
			//khazana:frame-owner the zero-filled stand-in is handed to the SnapshotRead caller too
			f = zeroFill(desc)
		}
		out = append(out, SnapPage{Page: pages[i], Frame: f, Version: it.Version})
	}
	batch.ReleaseFrames()
	return out, batch.Epoch, nil
}

// snapshotReply builds the SnapshotGrantBatch for a served snapshot read,
// consuming the frames in snaps (each is attached to its item and the
// local reference dropped).
func snapshotReply(snaps []SnapPage, epoch uint64) *wire.SnapshotGrantBatch {
	batch := &wire.SnapshotGrantBatch{Epoch: epoch, Items: make([]wire.SnapshotItem, len(snaps))}
	for i, sp := range snaps {
		it := &batch.Items[i]
		it.OK = true
		it.Version = sp.Version
		it.SetFrame(sp.Frame)
		sp.Frame.Release()
	}
	return batch
}

// StoreUpdates installs pushed page copies of desc's region — a release's
// append at a secondary home, a replica-maintenance or migration push —
// comparing before it stores: an item older than the version held here is
// skipped, so a late push never overwrites newer bytes. The table's push
// lock makes compare, store and label one step. Each stored item's frame
// is taken off the message; the first failure stops the install and is
// returned.
func StoreUpdates(h Host, desc *region.Descriptor, from ktypes.NodeID, items []wire.UpdateItem) error {
	tab := tableOf(h, desc)
	mu := tab.PushLock()
	mu.Lock()
	defer mu.Unlock()
	for i := range items {
		if err := storeUpdate(h, tab, from, &items[i]); err != nil {
			return err
		}
	}
	return nil
}

func storeUpdate(h Host, tab *pagedir.Table, from ktypes.NodeID, it *wire.UpdateItem) error {
	p := tab.Touch(it.Page)
	if p == nil {
		return fmt.Errorf("consistency: update of %v outside its region", it.Page)
	}
	if e, _ := tab.Lookup(it.Page); it.Version < e.Version {
		return nil
	}
	f := it.TakeFrame()
	if f == nil {
		return fmt.Errorf("consistency: update of %v without contents", it.Page)
	}
	err := h.StorePage(p, f)
	f.Release()
	if err != nil {
		return err
	}
	self := h.Self()
	tab.Update(it.Page, func(e *pagedir.Entry) {
		if it.Version >= e.Version {
			e.Version = it.Version
			if e.State != pagedir.Owned {
				e.State = pagedir.Shared
			}
		}
		e.AddSharer(self)
		e.AddSharer(from)
	})
	return nil
}

// currentItem reads a page's entry and then its bytes — the committed copy
// its version chain holds at that version, else the stored copy, which a
// release stores before it bumps the version, so the bytes are never
// older than the label — as an update item from self holding one frame
// reference; ok is false when no copy is held here.
func currentItem(self ktypes.NodeID, h Host, tab *pagedir.Table, page gaddr.Addr) (it wire.UpdateItem, e pagedir.Entry, ok bool) {
	var f *frame.Frame
	tab.With(page, func(p *pagedir.Page) {
		e = p.Entry
		if p.Chain == nil {
			return
		}
		if v, ok := p.Chain.LatestVersion(); ok && v == e.Version {
			//khazana:frame-owner handed to the update item below
			f, _, _ = p.Chain.Latest()
		}
	})
	if f == nil {
		if f, ok = h.LoadPage(tab.Touch(page)); !ok {
			return it, e, false
		}
	}
	it = wire.UpdateItem{Page: page, Version: e.Version, Origin: self}
	it.SetFrame(f)
	f.Release()
	return it, e, true
}

// PageSource is a node's pages as its replicated log sees them: the
// leader's catch-ups take their bytes from it, a follower checks an
// append's versions against it, and a page's copyset follows each
// secondary home's answer to the appends carrying it.
type PageSource struct{ H Host }

var _ replog.Pages = PageSource{}

// Current implements replog.Pages.
func (s PageSource) Current(start gaddr.Addr, pages []gaddr.Addr) []wire.UpdateItem {
	tab := s.H.Pages().At(start)
	if tab == nil {
		return nil
	}
	items := make([]wire.UpdateItem, 0, len(pages))
	for _, p := range pages {
		if it, _, ok := currentItem(s.H.Self(), s.H, tab, p); ok {
			items = append(items, it)
		}
	}
	return items
}

// Held implements replog.Pages.
func (s PageSource) Held(start, page gaddr.Addr) uint64 {
	if tab := s.H.Pages().At(start); tab != nil {
		e, _ := tab.Lookup(page)
		return e.Version
	}
	return 0
}

// Acked implements replog.Pages: a secondary that holds the pages joins
// the copyset of each still at the version it got, and one that failed
// leaves them all.
func (s PageSource) Acked(start gaddr.Addr, node ktypes.NodeID, pages []wire.UpdateItem, ok bool) {
	tab := s.H.Pages().At(start)
	if tab == nil {
		return
	}
	for i := range pages {
		it := &pages[i]
		tab.Update(it.Page, func(e *pagedir.Entry) {
			switch {
			case !ok:
				e.RemoveSharer(node)
			case e.Version == it.Version:
				e.AddSharer(node)
			}
		})
	}
}
