package consistency

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/pagedir"
	"khazana/internal/region"
	"khazana/internal/replog"
	"khazana/internal/telemetry"
	"khazana/internal/transport"
	"khazana/internal/wire"
)

// testHost is a minimal Host: an in-memory page store, a page directory
// and a transport endpoint, with CM traffic routed by the
// shared test descriptor's protocol.
type testHost struct {
	id ktypes.NodeID
	// net is the simulated network every host of the cluster shares.
	net *transport.Network
	tr  transport.Transport
	dir *pagedir.Dir
	tel *telemetry.Registry
	cms map[region.Protocol]CM

	mu sync.Mutex
	// pages holds one frame reference per entry.
	pages map[gaddr.Addr]*frame.Frame

	clock atomic.Int64

	// descs resolves pages to descriptors for inbound traffic.
	descs []*region.Descriptor

	// failStore, when set, makes StorePage of the pages it reports fail.
	failStore func(gaddr.Addr) bool
	// storing, when set, sees every StorePage before it takes effect.
	storing func(gaddr.Addr, *frame.Frame)

	// repl is the host's replicated log, routed over net like a node's.
	repl *replog.Log

	// intercept, when set, sees every inbound message first; a non-nil
	// error drops the message and is what its sender sees.
	intercept func(from ktypes.NodeID, m wire.Msg) error
}

var _ Host = (*testHost)(nil)

func (h *testHost) Self() ktypes.NodeID { return h.id }

func (h *testHost) Request(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	return h.tr.Request(ctx, to, m)
}

func (h *testHost) LoadPage(p *pagedir.Page) (*frame.Frame, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f, ok := h.pages[p.Page]
	if !ok {
		return nil, false
	}
	return f.Retain(), true
}

func (h *testHost) StorePage(p *pagedir.Page, f *frame.Frame) error {
	page := p.Page
	if h.storing != nil {
		h.storing(page, f)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.failStore != nil && h.failStore(page) {
		return fmt.Errorf("testHost: store of %v failed", page)
	}
	old := h.pages[page]
	//khazana:frame-owner the page map holds one reference per entry
	h.pages[page] = f.Retain()
	if old != nil {
		old.Release()
	}
	return nil
}

func (h *testHost) DropPage(p *pagedir.Page) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if f, ok := h.pages[p.Page]; ok {
		f.Release()
		delete(h.pages, p.Page)
	}
}

// rec returns page's record in its region's page table.
func (h *testHost) rec(page gaddr.Addr) *pagedir.Page {
	for _, d := range h.descs {
		if d.Range.Contains(page) {
			return tableOf(h, d).Touch(page)
		}
	}
	panic(fmt.Sprintf("page %v outside every test region", page))
}

// entryOf returns the page's directory entry on h, if h lists one.
func entryOf(h *testHost, page gaddr.Addr) (pagedir.Entry, bool) {
	if tab := h.dir.Find(page); tab != nil {
		return tab.Lookup(page)
	}
	return pagedir.Entry{}, false
}

// storeBytes stores a copy of data as the page's local copy.
func storeBytes(h Host, page gaddr.Addr, data []byte) error {
	f := frame.Copy(data)
	err := h.StorePage(h.(*testHost).rec(page), f)
	f.Release()
	return err
}

func (h *testHost) Repl() *replog.Log { return h.repl }

func (h *testHost) Pages() *pagedir.Dir            { return h.dir }
func (h *testHost) Clock() int64                   { return h.clock.Add(1) }
func (h *testHost) Telemetry() *telemetry.Registry { return h.tel }

// pageOf extracts the page address from CM traffic.
func pageOf(m wire.Msg) (gaddr.Addr, bool) {
	switch msg := m.(type) {
	case *wire.PageReqBatch:
		if len(msg.Pages) == 0 {
			return gaddr.Addr{}, false
		}
		return msg.Pages[0], true
	case *wire.ReleaseBatch:
		if len(msg.Items) == 0 {
			return gaddr.Addr{}, false
		}
		return msg.Items[0].Page, true
	case *wire.InvalidateBatch:
		if len(msg.Items) == 0 {
			return gaddr.Addr{}, false
		}
		return msg.Items[0].Page, true
	case *wire.UpdateBatch:
		if len(msg.Items) == 0 {
			return gaddr.Addr{}, false
		}
		return msg.Items[0].Page, true
	case *wire.ReplAppend:
		if len(msg.Pages) == 0 {
			return gaddr.Addr{}, false
		}
		return msg.Pages[0].Page, true
	case *wire.SnapshotReqBatch:
		if len(msg.Pages) == 0 {
			return gaddr.Addr{}, false
		}
		return msg.Pages[0], true
	}
	return gaddr.Addr{}, false
}

// handle routes inbound traffic as a node does: a release's append and
// other CM traffic to the CM of the page's region, the rest of the log's
// traffic to the log.
func (h *testHost) handle(ctx context.Context, from ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	if h.intercept != nil {
		if err := h.intercept(from, m); err != nil {
			return nil, err
		}
	}
	return h.route(ctx, from, m)
}

func (h *testHost) route(ctx context.Context, from ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	switch msg := m.(type) {
	case *wire.ReplAppend:
		if len(msg.Pages) == 0 {
			return h.repl.HandleAppend(msg), nil
		}
	case *wire.ReplPromote:
		return h.repl.HandleVote(msg), nil
	}
	page, ok := pageOf(m)
	if !ok {
		return nil, fmt.Errorf("testHost: unroutable %T", m)
	}
	for _, d := range h.descs {
		if d.Range.Contains(page) {
			return h.cms[d.Attrs.Protocol].Handle(ctx, d, from, m)
		}
	}
	return nil, fmt.Errorf("testHost: no descriptor for %v", page)
}

// cluster builds n hosts on a fresh in-process network sharing descs.
func cluster(t *testing.T, n int, descs ...*region.Descriptor) []*testHost {
	t.Helper()
	net := transport.NewNetwork()
	reg := NewRegistry()
	hosts := make([]*testHost, n)
	for i := 0; i < n; i++ {
		id := ktypes.NodeID(i + 1)
		tr, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		h := &testHost{
			id:    id,
			net:   net,
			tr:    tr,
			dir:   pagedir.New(),
			tel:   telemetry.New(),
			pages: make(map[gaddr.Addr]*frame.Frame),
			descs: descs,
		}
		h.repl = replog.New(replog.Config{Self: id, Send: tr.Request})
		h.cms = reg.Build(h)
		tr.SetHandler(h.handle)
		hosts[i] = h
	}
	return hosts
}

// testDesc builds a descriptor homed on node 1 with the given protocol.
func testDesc(protocol region.Protocol) *region.Descriptor {
	attrs := region.DefaultAttrs()
	attrs.Protocol = protocol
	return &region.Descriptor{
		Range:     gaddr.Range{Start: gaddr.FromUint64(0x100000), Size: 0x10000},
		Attrs:     attrs,
		Home:      []ktypes.NodeID{1},
		Epoch:     1,
		Allocated: true,
	}
}

// cm returns the host's CM for the descriptor's protocol.
func (h *testHost) cm(d *region.Descriptor) CM { return h.cms[d.Attrs.Protocol] }

// snapshot returns a private copy of the page's current (or zero) bytes.
func snapshot(h *testHost, d *region.Descriptor, page gaddr.Addr) []byte {
	f := loadOrZero(h, d, h.rec(page))
	data := append([]byte(nil), f.Bytes()...)
	f.Release()
	return data
}

// resident reports whether the host holds a local copy of the page.
func resident(h *testHost, page gaddr.Addr) bool {
	f, ok := h.LoadPage(h.rec(page))
	if ok {
		f.Release()
	}
	return ok
}

// acquirePage takes one page's lock: a batch of one.
func acquirePage(ctx context.Context, cm CM, d *region.Descriptor, page gaddr.Addr, mode ktypes.LockMode) error {
	_, err := cm.AcquireBatch(ctx, d, []gaddr.Addr{page}, mode)
	return err
}

// releasePage drops one page's lock: a batch of one.
func releasePage(ctx context.Context, cm CM, d *region.Descriptor, page gaddr.Addr, mode ktypes.LockMode, dirty bool) error {
	if errs := cm.ReleaseBatch(ctx, d, []gaddr.Addr{page}, mode, []bool{dirty}); errs != nil {
		return errs[0]
	}
	return nil
}

// lockWrite acquires, mutates, and releases a page under a write lock.
func lockWrite(t *testing.T, h *testHost, d *region.Descriptor, page gaddr.Addr, mutate func(data []byte)) {
	t.Helper()
	ctx := context.Background()
	if err := acquirePage(ctx, h.cm(d), d, page, ktypes.LockWrite); err != nil {
		t.Fatalf("%v acquire write: %v", h.id, err)
	}
	data := snapshot(h, d, page)
	mutate(data)
	if err := storeBytes(h, page, data); err != nil {
		t.Fatal(err)
	}
	if err := releasePage(ctx, h.cm(d), d, page, ktypes.LockWrite, true); err != nil {
		t.Fatalf("%v release write: %v", h.id, err)
	}
}

// lockRead acquires a read lock, snapshots the page, and releases.
func lockRead(t *testing.T, h *testHost, d *region.Descriptor, page gaddr.Addr) []byte {
	t.Helper()
	ctx := context.Background()
	if err := acquirePage(ctx, h.cm(d), d, page, ktypes.LockRead); err != nil {
		t.Fatalf("%v acquire read: %v", h.id, err)
	}
	data := snapshot(h, d, page)
	if err := releasePage(ctx, h.cm(d), d, page, ktypes.LockRead, false); err != nil {
		t.Fatalf("%v release read: %v", h.id, err)
	}
	return data
}
