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
// to the local daemon's storage, page directory, lock table, and peers.
// The daemon implements Host; tests provide a lightweight harness.
type Host interface {
	// Self returns the local node's ID.
	Self() ktypes.NodeID
	// Request performs an RPC to a peer daemon.
	Request(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error)
	// LoadPage returns the local copy of a page, if resident. The caller
	// owns the returned frame (one reference) and must Release it; the
	// frame is shared, so its contents are immutable.
	LoadPage(page gaddr.Addr) (*frame.Frame, bool)
	// StorePage replaces the local copy of a page. The frame is
	// borrowed: the host takes its own reference.
	StorePage(page gaddr.Addr, f *frame.Frame) error
	// DropPage discards the local copy of a page. A copy pinned by an
	// active lock context may survive locally (the holder keeps its
	// grant-time snapshot); callers mark the page invalid in the
	// directory so the next acquire refetches.
	DropPage(page gaddr.Addr)
	// Dir returns the node's page directory.
	Dir() *pagedir.Dir
	// Locks returns the node's local lock table.
	Locks() *LockTable
	// Clock returns a monotonic-enough timestamp for last-writer-wins
	// ordering in the eventual protocol.
	Clock() int64
	// Telemetry returns the node's metrics registry; nil disables
	// instrumentation (instruments resolved from nil are no-ops).
	Telemetry() *telemetry.Registry
	// Repl returns the node's replicated region-metadata log, or nil
	// when log replication is disabled. The concrete pointer type (not
	// an interface) keeps a nil *replog.Log comparable to nil here: a
	// typed nil inside an interface would not be.
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
	// ReleaseBatch drops the locks on a set of pages; dirty marks the
	// pages whose local copies were modified under a write-mode lock (nil
	// means none were). It returns nil when every release succeeded, else
	// a slice aligned with pages holding the per-page error (nil entries
	// succeeded), so the caller can queue background retries for just the
	// failures.
	ReleaseBatch(ctx context.Context, desc *region.Descriptor, pages []gaddr.Addr, mode ktypes.LockMode, dirty map[gaddr.Addr]bool) []error
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
func loadOrZero(h Host, desc *region.Descriptor, page gaddr.Addr) *frame.Frame {
	if f, ok := h.LoadPage(page); ok {
		return f
	}
	return zeroFill(desc)
}

// storeBytes copies plain bytes into the host's page store via a
// transient frame, for decode paths that hold no frame.
func storeBytes(h Host, page gaddr.Addr, data []byte) error {
	f := frame.Copy(data)
	err := h.StorePage(page, f)
	f.Release()
	return err
}

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

// snapshotFromStore answers a snapshot read from the local store: one
// committed copy per page at the directory's current version. It is the
// shared serving path for protocols whose local copy is committed by
// construction (the release protocol's home between releases, the
// eventual protocol everywhere). The caller owns every returned frame.
func snapshotFromStore(h Host, desc *region.Descriptor, pages []gaddr.Addr) []SnapPage {
	out := make([]SnapPage, 0, len(pages))
	for _, p := range pages {
		//khazana:frame-owner snapshot pages hand their frames to the SnapshotRead caller
		f := loadOrZero(h, desc, p)
		var version uint64
		if e, ok := h.Dir().Lookup(p); ok {
			version = e.Version
		}
		out = append(out, SnapPage{Page: p, Frame: f, Version: version})
	}
	return out
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
	if !ok {
		return nil, 0, fmt.Errorf("consistency: unexpected snapshot reply %T", resp)
	}
	if len(batch.Items) != len(pages) {
		batch.ReleaseFrames()
		return nil, 0, fmt.Errorf("consistency: snapshot reply has %d items for %d pages", len(batch.Items), len(pages))
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
	batch := &wire.SnapshotGrantBatch{
		Epoch: epoch,
		Items: make([]wire.SnapshotItem, len(snaps)),
	}
	for i, sp := range snaps {
		it := &batch.Items[i]
		it.OK = true
		it.Version = sp.Version
		it.SetFrame(sp.Frame)
		sp.Frame.Release()
	}
	return batch
}
