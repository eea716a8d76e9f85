package consistency

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/pagedir"
	"khazana/internal/region"
	"khazana/internal/wire"
)

// crewDesc builds a CREW descriptor of the given page count homed on node 1.
func crewDesc(pages int) *region.Descriptor {
	d := testDesc(region.CREW)
	d.Range.Size = uint64(pages) * uint64(d.Attrs.PageSize)
	return d
}

// invalCount tallies the InvalidateBatch traffic one host receives.
type invalCount struct{ batches, items atomic.Int64 }

// countInvalidations interposes on h's inbound handler.
func countInvalidations(h *testHost) *invalCount {
	c := &invalCount{}
	h.tr.SetHandler(func(ctx context.Context, from ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
		if ib, ok := m.(*wire.InvalidateBatch); ok {
			c.batches.Add(1)
			c.items.Add(int64(len(ib.Items)))
		}
		return h.handle(ctx, from, m)
	})
	return c
}

// readAll takes and drops a read lock on pages from h, leaving h in every
// page's copyset with a resident copy.
func readAll(t *testing.T, h *testHost, d *region.Descriptor, pages []gaddr.Addr) {
	t.Helper()
	ctx := context.Background()
	if _, err := h.cm(d).AcquireBatch(ctx, d, pages, ktypes.LockRead); err != nil {
		t.Fatalf("%v read batch: %v", h.id, err)
	}
	if errs := h.cm(d).ReleaseBatch(ctx, d, pages, ktypes.LockRead, nil); errs != nil {
		t.Fatalf("%v read release: %v", h.id, errs)
	}
}

// writeAll stamps every page with fill from h under one write batch.
func writeAll(t *testing.T, h *testHost, d *region.Descriptor, pages []gaddr.Addr, fill byte) {
	t.Helper()
	ctx := context.Background()
	if _, err := h.cm(d).AcquireBatch(ctx, d, pages, ktypes.LockWrite); err != nil {
		t.Fatalf("%v write batch: %v", h.id, err)
	}
	dirty := make(map[gaddr.Addr]bool, len(pages))
	for _, p := range pages {
		if err := storeBytes(h, p, bytes.Repeat([]byte{fill}, int(d.Attrs.PageSize))); err != nil {
			t.Fatal(err)
		}
		dirty[p] = true
	}
	if errs := h.cm(d).ReleaseBatch(ctx, d, pages, ktypes.LockWrite, dirty); errs != nil {
		t.Fatalf("%v write release: %v", h.id, errs)
	}
}

// TestWriteBatchInvalidatesOncePerSharer: a write grant over pages a remote
// node shares costs that node exactly one InvalidateBatch naming every page,
// whichever way the grant enters the home — a local client's AcquireBatch
// or a remote writer's PageReqBatch.
func TestWriteBatchInvalidatesOncePerSharer(t *testing.T) {
	const pageCount = 256
	for _, tc := range []struct {
		name    string
		writer  int // index into hosts; 0 is the home
		sharers []int
	}{
		{"home-local writer, one sharer", 0, []int{1}},
		{"home-local writer, two sharers", 0, []int{1, 2}},
		{"remote writer, one sharer", 3, []int{1}},
		{"remote writer, two sharers", 3, []int{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := crewDesc(pageCount)
			hosts := cluster(t, 4, d)
			pages := d.Pages(0, d.Range.Size)
			counts := make([]*invalCount, len(hosts))
			for i, h := range hosts {
				counts[i] = countInvalidations(h)
			}
			for _, s := range tc.sharers {
				readAll(t, hosts[s], d, pages)
			}
			writer := hosts[tc.writer]
			before, _ := writer.net.Stats()
			ctx := context.Background()
			if _, err := writer.cm(d).AcquireBatch(ctx, d, pages, ktypes.LockWrite); err != nil {
				t.Fatalf("write batch: %v", err)
			}
			after, _ := writer.net.Stats()

			wantRPCs := uint64(len(tc.sharers))
			if tc.writer != 0 {
				wantRPCs++ // the PageReqBatch itself
			}
			if got := after - before; got != wantRPCs {
				t.Errorf("write grant cost %d RPCs, want %d", got, wantRPCs)
			}
			shares := make(map[int]bool)
			for _, s := range tc.sharers {
				shares[s] = true
			}
			for i, c := range counts {
				wantBatches, wantItems := int64(0), int64(0)
				if shares[i] {
					wantBatches, wantItems = 1, pageCount
				}
				if b, it := c.batches.Load(), c.items.Load(); b != wantBatches || it != wantItems {
					t.Errorf("node %v received %d InvalidateBatch RPCs naming %d pages, want %d naming %d",
						hosts[i].id, b, it, wantBatches, wantItems)
				}
			}
			for _, s := range tc.sharers {
				for _, p := range pages {
					if resident(hosts[s], p) {
						t.Fatalf("sharer %v still holds %v after the write grant", hosts[s].id, p)
					}
					if e, _ := hosts[s].dir.Lookup(p); e.State != pagedir.Invalid || e.Owner != writer.id {
						t.Fatalf("sharer %v directory for %v: state %v owner %v, want invalid under %v",
							hosts[s].id, p, e.State, e.Owner, writer.id)
					}
				}
			}
			for _, p := range pages {
				if e, _ := hosts[0].dir.Lookup(p); len(e.Copyset) != 1 || !e.InCopyset(writer.id) {
					t.Fatalf("home copyset for %v is %v, want only the writer %v", p, e.Copyset, writer.id)
				}
			}
			if errs := writer.cm(d).ReleaseBatch(ctx, d, pages, ktypes.LockWrite, nil); errs != nil {
				t.Fatalf("release: %v", errs)
			}
		})
	}
}

// TestWriteBatchConflictInvalidatesGrantedPrefix: a write batch that stops
// at page i because a reader holds it has, by the time the error returns,
// invalidated the sharers of pages [0,i) — those pages already name the
// writer as owner — and left the rest alone. After the rollback the sharer's
// next read fetches the committed contents again, and the next full write
// is seen whole: one writer at a time, throughout.
func TestWriteBatchConflictInvalidatesGrantedPrefix(t *testing.T) {
	const (
		pageCount = 16
		held      = 5
	)
	d := crewDesc(pageCount)
	hosts := cluster(t, 4, d)
	pages := d.Pages(0, d.Range.Size)
	home, sharer, blocker := hosts[0], hosts[1], hosts[2]
	invals := countInvalidations(sharer)
	ctx := context.Background()

	checkAll := func(when string, fill byte) {
		t.Helper()
		if _, err := sharer.cm(d).AcquireBatch(ctx, d, pages, ktypes.LockRead); err != nil {
			t.Fatalf("%s: sharer read batch: %v", when, err)
		}
		for _, p := range pages {
			if got := snapshot(sharer, d, p); got[0] != fill || got[len(got)-1] != fill {
				t.Fatalf("%s: sharer reads %#x on %v, want %#x", when, got[0], p, fill)
			}
		}
		if errs := sharer.cm(d).ReleaseBatch(ctx, d, pages, ktypes.LockRead, nil); errs != nil {
			t.Fatalf("%s: sharer read release: %v", when, errs)
		}
	}

	for round := 0; round < 20; round++ {
		fill := byte(round + 1)
		// Committed writes alternate between the home's own client and a
		// remote writer. The conflicting batch is always the home's: a
		// remote one blocks inside the home's handler until the caller's
		// own deadline, so its reply never reaches the caller.
		committer := home
		if round%2 == 1 {
			committer = hosts[3]
		}
		writeAll(t, committer, d, pages, fill)
		checkAll("after the committed write", fill)

		if err := acquirePage(ctx, blocker.cm(d), d, pages[held], ktypes.LockRead); err != nil {
			t.Fatalf("blocker read: %v", err)
		}
		invals.batches.Store(0)
		invals.items.Store(0)
		short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
		acquired, err := home.cm(d).AcquireBatch(short, d, pages, ktypes.LockWrite)
		cancel()
		if !errors.Is(err, ErrConflict) {
			t.Fatalf("write batch over a read-held page returned %v, want a lock conflict", err)
		}
		if len(acquired) != held {
			t.Fatalf("write batch holds %d pages after the conflict, want the %d before the held one", len(acquired), held)
		}
		if b, it := invals.batches.Load(), invals.items.Load(); b != 1 || it != held {
			t.Fatalf("sharer received %d InvalidateBatch RPCs naming %d pages before the error returned, want 1 naming %d", b, it, held)
		}
		for i, p := range pages {
			if got, want := resident(sharer, p), i >= held; got != want {
				t.Fatalf("sharer copy of page %d resident=%v after the failed batch, want %v", i, got, want)
			}
		}
		// Roll back the way core.Lock does, then let the reader go.
		if errs := home.cm(d).ReleaseBatch(ctx, d, acquired, ktypes.LockWrite, nil); errs != nil {
			t.Fatalf("rollback: %v", errs)
		}
		if err := releasePage(ctx, blocker.cm(d), d, pages[held], ktypes.LockRead, false); err != nil {
			t.Fatalf("blocker release: %v", err)
		}
		checkAll("after the rolled-back write", fill)
	}
	if got := home.cm(d).(*CrewCM).InvalidateFailures(); got != 0 {
		t.Fatalf("%d invalidations failed with every link up", got)
	}
}

// TestUnreachableSharerPrunedFromEveryPage: a sharer the home cannot reach
// is pruned from the copyset of every page its InvalidateBatch listed, and
// each of those pages counts as one failed invalidation.
func TestUnreachableSharerPrunedFromEveryPage(t *testing.T) {
	const pageCount = 16
	d := crewDesc(pageCount)
	hosts := cluster(t, 3, d)
	pages := d.Pages(0, d.Range.Size)
	home, cut, reachable := hosts[0], hosts[1], hosts[2]
	reached := countInvalidations(reachable)
	readAll(t, cut, d, pages)
	readAll(t, reachable, d, pages)

	home.net.Partition(home.id, cut.id)
	ctx := context.Background()
	if _, err := home.cm(d).AcquireBatch(ctx, d, pages, ktypes.LockWrite); err != nil {
		t.Fatalf("write batch with one sharer cut off: %v", err)
	}
	if got := home.cm(d).(*CrewCM).InvalidateFailures(); got != pageCount {
		t.Errorf("invalidate failures = %d, want one per page the cut-off sharer held (%d)", got, pageCount)
	}
	if b, it := reached.batches.Load(), reached.items.Load(); b != 1 || it != pageCount {
		t.Errorf("reachable sharer received %d InvalidateBatch RPCs naming %d pages, want 1 naming %d", b, it, pageCount)
	}
	for _, p := range pages {
		e, _ := home.dir.Lookup(p)
		if e.InCopyset(cut.id) || e.InCopyset(reachable.id) || !e.InCopyset(home.id) {
			t.Fatalf("copyset of %v is %v, want only the writer", p, e.Copyset)
		}
		if !resident(cut, p) {
			t.Fatalf("cut-off sharer lost its copy of %v without hearing the invalidation", p)
		}
	}
	if errs := home.cm(d).ReleaseBatch(ctx, d, pages, ktypes.LockWrite, nil); errs != nil {
		t.Fatalf("release: %v", errs)
	}
}
