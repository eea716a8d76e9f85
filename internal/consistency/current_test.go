package consistency

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/pagedir"
	"khazana/internal/region"
	"khazana/internal/telemetry"
	"khazana/internal/wire"
)

// grantsCurrent reads the home's count of grant pages that shipped no
// bytes.
func grantsCurrent(home *testHost) uint64 {
	return home.tel.Counter(telemetry.MetricGrantPagesCurrent).Load()
}

// checkPages fails unless every page reads fill on h.
func checkPages(t *testing.T, h *testHost, d *region.Descriptor, pages []gaddr.Addr, fill byte) {
	t.Helper()
	want := bytes.Repeat([]byte{fill}, int(d.Attrs.PageSize))
	for _, p := range pages {
		if got := snapshot(h, d, p); !bytes.Equal(got, want) {
			t.Fatalf("%v reads %q... on node %v, want %q...", p, got[:4], h.id, want[:4])
		}
	}
}

// watchHave records the Have of every PageReqBatch the home receives.
func watchHave(home *testHost) *atomic.Pointer[[]uint64] {
	var last atomic.Pointer[[]uint64]
	home.intercept = func(_ ktypes.NodeID, m wire.Msg) error {
		if req, ok := m.(*wire.PageReqBatch); ok {
			have := append([]uint64(nil), req.Have...)
			last.Store(&have)
		}
		return nil
	}
	return &last
}

// A re-lock of pages whose copies are at the home's version costs the one
// PageReqBatch it always did, and both messages carry no page bytes: the
// request names each held version, and each grant answers Current.
func TestCurrentCopyGrantShipsNoBytes(t *testing.T) {
	d := crewDesc(8)
	hosts := cluster(t, 3, d)
	home, writer, reader := hosts[0], hosts[1], hosts[2]
	pages := d.Pages(0, d.Range.Size)
	ctx := context.Background()
	writeAll(t, writer, d, pages, 'w')

	// relock re-locks the first n pages from h and checks the cost: one
	// PageReqBatch whose request names n versions and whose grants are all
	// Current. A grant's size does not depend on its values.
	relock := func(name string, h *testHost, n int, mode ktypes.LockMode) {
		t.Helper()
		group := pages[:n]
		req := &wire.PageReqBatch{Pages: group, Modes: make([]ktypes.LockMode, n), Requester: h.id, Have: make([]uint64, n)}
		resp := &wire.PageGrantBatch{Grants: make([]wire.PageGrantItem, n)}
		for i := range resp.Grants {
			req.Modes[i] = mode
			resp.Grants[i] = wire.PageGrantItem{OK: true, Current: true}
		}
		want := uint64(len(wire.Marshal(req)) + len(wire.Marshal(resp)))
		current := grantsCurrent(home)
		rpcs, wireBytes := home.net.Stats()
		if _, err := h.cm(d).AcquireBatch(ctx, d, group, mode); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rpcs2, wireBytes2 := home.net.Stats()
		if got := wireBytes2 - wireBytes; rpcs2-rpcs != 1 || got != want {
			t.Errorf("%s cost %d RPCs and %d wire bytes, want 1 RPC and %d bytes", name, rpcs2-rpcs, got, want)
		}
		if got := grantsCurrent(home) - current; got != uint64(n) {
			t.Errorf("%s: home counted %d pages current, want %d", name, got, n)
		}
		checkPages(t, h, d, group, 'w')
		if errs := h.cm(d).ReleaseBatch(ctx, d, group, mode, nil); errs != nil {
			t.Fatalf("%s release: %v", name, errs)
		}
	}
	relock("8-page write re-lock", writer, 8, ktypes.LockWrite)
	readAll(t, reader, d, pages[:4])
	relock("4-page read re-lock", reader, 4, ktypes.LockRead)
}

// A copy the home has moved past gets the bytes: one another node's write
// revoked (and so is not advertised), and one whose revocation never
// reached its holder, which still advertises the old version.
func TestStaleCopyGetsBytes(t *testing.T) {
	for _, invalidationFails := range []bool{false, true} {
		d := crewDesc(1)
		hosts := cluster(t, 3, d)
		home, writer, reader := hosts[0], hosts[1], hosts[2]
		page := d.Range.Start
		pages := []gaddr.Addr{page}
		writeAll(t, writer, d, pages, 'a')
		readAll(t, reader, d, pages)
		if invalidationFails {
			reader.intercept = func(_ ktypes.NodeID, m wire.Msg) error {
				if _, ok := m.(*wire.InvalidateBatch); ok {
					return errors.New("invalidation lost")
				}
				return nil
			}
		}
		writeAll(t, writer, d, pages, 'b')
		reader.intercept = nil
		if e, _ := entryOf(reader, page); (e.State == pagedir.Invalid) == invalidationFails {
			t.Fatalf("invalidation failing %v: reader's entry is %v", invalidationFails, e.State)
		}
		have := watchHave(home)
		current := grantsCurrent(home)
		_, before := home.net.Stats()
		readAll(t, reader, d, pages)
		_, after := home.net.Stats()
		if after-before < uint64(d.Attrs.PageSize) || grantsCurrent(home) != current {
			t.Errorf("invalidation failing %v: stale copy's grant shipped %d bytes, current count +%d", invalidationFails, after-before, grantsCurrent(home)-current)
		}
		if got := *have.Load(); (len(got) == 1) != invalidationFails {
			t.Errorf("invalidation failing %v: request advertised %v", invalidationFails, got)
		}
		checkPages(t, reader, d, pages, 'b')
	}
}

// A copy advertised before a write grant revoked it is still the page's
// when that writer released clean: the grant answers Current, and the
// requester stores the frame it held through the revocation.
func TestCleanWriteKeepsAdvertisedCopy(t *testing.T) {
	d := crewDesc(1)
	hosts := cluster(t, 3, d)
	home, writer, reader := hosts[0], hosts[1], hosts[2]
	page := d.Range.Start
	pages := []gaddr.Addr{page}
	ctx := context.Background()
	writeAll(t, writer, d, pages, 'c')
	readAll(t, reader, d, pages)

	var raced bool
	home.intercept = func(from ktypes.NodeID, m wire.Msg) error {
		if _, ok := m.(*wire.PageReqBatch); !ok || from != reader.id || raced {
			return nil
		}
		raced = true
		// The reader's request is in flight: a writer revokes its copy
		// and releases without writing.
		if _, err := writer.cm(d).AcquireBatch(ctx, d, pages, ktypes.LockWrite); err != nil {
			return err
		}
		if resident(reader, page) {
			return errors.New("write grant left the reader's copy")
		}
		if errs := writer.cm(d).ReleaseBatch(ctx, d, pages, ktypes.LockWrite, nil); errs != nil {
			return errs[0]
		}
		return nil
	}
	current := grantsCurrent(home)
	readAll(t, reader, d, pages)
	if !raced {
		t.Fatal("the write never raced the read")
	}
	// The writer's grant was current too: it wrote the page last.
	if got := grantsCurrent(home) - current; got != 2 {
		t.Errorf("home counted %d pages current, want the writer's and the reader's", got)
	}
	if e, _ := entryOf(reader, page); e.State != pagedir.Shared {
		t.Errorf("reader's entry is %v after a current grant, want shared", e.State)
	}
	if !resident(reader, page) {
		t.Fatal("reader kept no copy after a current grant")
	}
	checkPages(t, reader, d, pages, 'c')
}

// A copy evicted from the requester's store is not advertised, even though
// its directory entry still names the version: the grant ships the bytes.
func TestEvictedCopyNotAdvertised(t *testing.T) {
	d := crewDesc(1)
	hosts := cluster(t, 3, d)
	home, writer, reader := hosts[0], hosts[1], hosts[2]
	page := d.Range.Start
	pages := []gaddr.Addr{page}
	writeAll(t, writer, d, pages, 'e')
	readAll(t, reader, d, pages)
	reader.DropPage(reader.rec(page))
	if e, _ := entryOf(reader, page); e.State != pagedir.Shared {
		t.Fatalf("reader's entry is %v after an eviction, want shared", e.State)
	}

	have := watchHave(home)
	current := grantsCurrent(home)
	readAll(t, reader, d, pages)
	if got := *have.Load(); got != nil {
		t.Errorf("request advertised %v for an evicted copy", got)
	}
	if grantsCurrent(home) != current {
		t.Error("an evicted copy was granted current")
	}
	checkPages(t, reader, d, pages, 'e')
}
