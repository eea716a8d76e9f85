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
	dirty := make([]bool, len(pages))
	for i, p := range pages {
		if err := storeBytes(h, p, bytes.Repeat([]byte{fill}, int(d.Attrs.PageSize))); err != nil {
			t.Fatal(err)
		}
		dirty[i] = true
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
					if e, _ := entryOf(hosts[s], p); e.State != pagedir.Invalid || e.Owner != writer.id {
						t.Fatalf("sharer %v directory for %v: state %v owner %v, want invalid under %v",
							hosts[s].id, p, e.State, e.Owner, writer.id)
					}
				}
			}
			for _, p := range pages {
				if e, _ := entryOf(hosts[0], p); len(e.Copyset) != 1 || !e.InCopyset(writer.id) {
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
	if got := home.cm(d).(*Engine).InvalidateFailures(); got != 0 {
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
	if got := home.cm(d).(*Engine).InvalidateFailures(); got != pageCount {
		t.Errorf("invalidate failures = %d, want one per page the cut-off sharer held (%d)", got, pageCount)
	}
	if b, it := reached.batches.Load(), reached.items.Load(); b != 1 || it != pageCount {
		t.Errorf("reachable sharer received %d InvalidateBatch RPCs naming %d pages, want 1 naming %d", b, it, pageCount)
	}
	for _, p := range pages {
		e, _ := entryOf(home, p)
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

// replicatedDesc builds a CREW descriptor of the given page count homed on
// nodes 1 (primary), 2 and 3.
func replicatedDesc(pages int) *region.Descriptor {
	d := crewDesc(pages)
	d.Home = []ktypes.NodeID{1, 2, 3}
	return d
}

// TestWriteGrantSparesListedHomes: a write grant never revokes a listed
// home's copy. With only homes and the writer in the copyset a grant sends
// no InvalidateBatch at all; a non-home reader costs exactly one, to that
// reader. The secondaries keep their committed copies through the hold,
// stay in the copyset across grant, release and write-through, and the
// release's log append brings them the new contents.
func TestWriteGrantSparesListedHomes(t *testing.T) {
	const pageCount = 16
	for _, tc := range []struct {
		name   string
		writer int // index into hosts; 0 is the primary home
		reader bool
	}{
		{"home-local writer, homes only", 0, false},
		{"remote writer, homes only", 3, false},
		{"remote writer, one non-home reader", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := replicatedDesc(pageCount)
			hosts := cluster(t, 5, d)
			pages := d.Pages(0, d.Range.Size)
			counts := make([]*invalCount, len(hosts))
			for i, h := range hosts {
				counts[i] = countInvalidations(h)
			}
			writer, home := hosts[tc.writer], hosts[0]
			writeAll(t, writer, d, pages, 1) // the release replicates to 2 and 3
			home.repl.Settle()
			reader := hosts[4]
			if tc.reader {
				readAll(t, reader, d, pages)
			}
			checkHomesListed := func(when string) {
				t.Helper()
				for _, p := range pages {
					e, _ := entryOf(home, p)
					for _, h := range d.Home {
						if !e.InCopyset(h) {
							t.Fatalf("%s: copyset of %v is %v, missing home %v", when, p, e.Copyset, h)
						}
					}
				}
			}
			checkHomesListed("before the grant")

			ctx := context.Background()
			before, _ := writer.net.Stats()
			if _, err := writer.cm(d).AcquireBatch(ctx, d, pages, ktypes.LockWrite); err != nil {
				t.Fatalf("write batch: %v", err)
			}
			after, _ := writer.net.Stats()
			wantRPCs := uint64(0)
			if tc.writer != 0 {
				wantRPCs++ // the PageReqBatch
			}
			if tc.reader {
				wantRPCs++ // the reader's InvalidateBatch
			}
			if got := after - before; got != wantRPCs {
				t.Errorf("write grant cost %d RPCs, want %d", got, wantRPCs)
			}
			for i, c := range counts {
				wantBatches := int64(0)
				if tc.reader && hosts[i] == reader {
					wantBatches = 1
				}
				if b := c.batches.Load(); b != wantBatches {
					t.Errorf("node %v received %d InvalidateBatch RPCs, want %d", hosts[i].id, b, wantBatches)
				}
			}
			checkHomesListed("during the hold")
			for _, p := range pages {
				for _, s := range hosts[1:3] {
					if got := snapshot(s, d, p); !resident(s, p) || got[0] != 1 {
						t.Fatalf("secondary %v lost its committed copy of %v during the hold", s.id, p)
					}
				}
				if tc.reader && resident(reader, p) {
					t.Fatalf("non-home reader still holds %v after the write grant", p)
				}
			}

			dirty := make([]bool, len(pages))
			for i, p := range pages {
				if err := storeBytes(writer, p, bytes.Repeat([]byte{2}, int(d.Attrs.PageSize))); err != nil {
					t.Fatal(err)
				}
				dirty[i] = true
			}
			if errs := writer.cm(d).ReleaseBatch(ctx, d, pages, ktypes.LockWrite, dirty); errs != nil {
				t.Fatalf("release: %v", errs)
			}
			home.repl.Settle()
			checkHomesListed("after release and write-through")
			for _, p := range pages {
				for _, s := range hosts[1:3] {
					if got := snapshot(s, d, p); got[0] != 2 {
						t.Fatalf("secondary %v holds %#x on %v after the write-through, want 0x2", s.id, got[0], p)
					}
				}
			}
			if got := home.cm(d).(*Engine).InvalidateFailures(); got != 0 {
				t.Fatalf("%d invalidations failed with every link up", got)
			}
		})
	}
}

// TestHomeLeavingListIsInvalidated: the exemption follows the descriptor.
// Once a new home list (a migration's or a shrink's) no longer names a
// node, its copy is an ordinary sharer's and the next write grant
// invalidates it.
func TestHomeLeavingListIsInvalidated(t *testing.T) {
	const pageCount = 4
	d := replicatedDesc(pageCount)
	hosts := cluster(t, 4, d)
	pages := d.Pages(0, d.Range.Size)
	writer, kept, dropped := hosts[3], hosts[1], hosts[2]
	keptInvals, droppedInvals := countInvalidations(kept), countInvalidations(dropped)
	writeAll(t, writer, d, pages, 1)
	hosts[0].repl.Settle()

	moved := d.Clone()
	moved.Home = []ktypes.NodeID{1, 2}
	moved.Epoch++
	for _, h := range hosts {
		h.descs = []*region.Descriptor{moved}
	}
	writeAll(t, writer, moved, pages, 2)
	hosts[0].repl.Settle()
	if b, it := droppedInvals.batches.Load(), droppedInvals.items.Load(); b != 1 || it != pageCount {
		t.Fatalf("former home received %d InvalidateBatch RPCs naming %d pages, want 1 naming %d", b, it, pageCount)
	}
	if b := keptInvals.batches.Load(); b != 0 {
		t.Fatalf("listed home received %d InvalidateBatch RPCs, want 0", b)
	}
	for _, p := range pages {
		if resident(dropped, p) {
			t.Fatalf("former home still holds %v", p)
		}
		if e, _ := entryOf(hosts[0], p); e.InCopyset(dropped.id) {
			t.Fatalf("copyset of %v is %v, still lists the former home", p, e.Copyset)
		}
		if got := snapshot(kept, moved, p); got[0] != 2 {
			t.Fatalf("listed home holds %#x on %v, want 0x2", got[0], p)
		}
	}
}

// TestFailedWriteThroughLeavesCopyset: write grants keep the listed homes
// in the copyset, so a secondary whose write-through fails must leave it —
// replica maintenance re-pushes only to homes the copyset does not list.
// The catch-up that reaches it once the link heals lists it again.
func TestFailedWriteThroughLeavesCopyset(t *testing.T) {
	const pageCount = 4
	d := replicatedDesc(pageCount)
	hosts := cluster(t, 4, d)
	pages := d.Pages(0, d.Range.Size)
	home, reached, missed, writer := hosts[0], hosts[1], hosts[2], hosts[3]
	writeAll(t, writer, d, pages, 1)
	home.repl.Settle()

	writer.net.Partition(home.id, missed.id)
	writeAll(t, writer, d, pages, 2)
	home.repl.Settle()
	for _, p := range pages {
		e, _ := entryOf(home, p)
		if e.InCopyset(missed.id) || !e.InCopyset(reached.id) {
			t.Fatalf("copyset of %v is %v after %v missed the write-through, want %v listed and %v not",
				p, e.Copyset, missed.id, reached.id, missed.id)
		}
		if got := snapshot(missed, d, p); got[0] != 1 {
			t.Fatalf("partitioned secondary holds %#x on %v, want the old 0x1", got[0], p)
		}
	}

	writer.net.Heal(home.id, missed.id)
	writeAll(t, writer, d, pages, 3)
	home.repl.Settle()
	for _, p := range pages {
		e, _ := entryOf(home, p)
		if !e.InCopyset(missed.id) {
			t.Fatalf("copyset of %v is %v after a write-through reached %v", p, e.Copyset, missed.id)
		}
		if got := snapshot(missed, d, p); got[0] != 3 {
			t.Fatalf("healed secondary holds %#x on %v, want 0x3", got[0], p)
		}
	}
}

// TestJoinedHomeReadWaitsOutWriter: a node that read a page as an ordinary
// sharer and then joined the home list keeps its copy through the next
// write grant, which leaves homes alone. Its read must still go to the
// primary and wait out the writer, not serve the copy it kept.
func TestJoinedHomeReadWaitsOutWriter(t *testing.T) {
	before := crewDesc(2)
	before.Home = []ktypes.NodeID{1, 2}
	hosts := cluster(t, 4, before)
	pages := before.Pages(0, before.Range.Size)
	joiner, writer := hosts[2], hosts[3]
	readAll(t, joiner, before, pages)

	after := before.Clone()
	after.Home = []ktypes.NodeID{1, 2, 3}
	after.Epoch++
	for _, h := range hosts {
		h.descs = []*region.Descriptor{after}
	}
	ctx := context.Background()
	if _, err := writer.cm(after).AcquireBatch(ctx, after, pages, ktypes.LockWrite); err != nil {
		t.Fatal(err)
	}
	if !resident(joiner, pages[0]) {
		t.Fatal("the write grant revoked a listed home's copy (the precondition)")
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	got, err := joiner.cm(after).AcquireBatch(short, after, pages, ktypes.LockRead)
	cancel()
	if err == nil {
		t.Fatalf("new home read %v during another node's write hold", got)
	}
	if len(got) != 0 {
		t.Fatalf("failed read returned held pages %v", got)
	}
	if errs := writer.cm(after).ReleaseBatch(ctx, after, pages, ktypes.LockWrite, nil); errs != nil {
		t.Fatal(errs)
	}
	readAll(t, joiner, after, pages)
}

// TestReleaseBatchRespErrsOnlyOnFailure: the home answers an all-OK remote
// release batch with an empty error list — the reply's count and nothing
// else — and a batch whose third page fails its write-through with that
// failure at index 2 and every other page committed.
func TestReleaseBatchRespErrsOnlyOnFailure(t *testing.T) {
	d := crewDesc(4)
	hosts := cluster(t, 2, d)
	home, writer := hosts[0], hosts[1]
	pages := d.Pages(0, d.Range.Size)
	var reply *wire.ReleaseBatchResp
	home.tr.SetHandler(func(ctx context.Context, from ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
		resp, err := home.handle(ctx, from, m)
		if rb, ok := resp.(*wire.ReleaseBatchResp); ok {
			reply = rb
		}
		return resp, err
	})

	writeAll(t, writer, d, pages, 1)
	if reply == nil || len(reply.Errs) != 0 {
		t.Fatalf("all-OK release replied %+v, want an empty error list", reply)
	}
	if got := len(wire.Marshal(reply)); got != 4 {
		t.Fatalf("all-OK release reply encodes as %d bytes, want 4 (kind and count)", got)
	}

	ctx := context.Background()
	if _, err := writer.cm(d).AcquireBatch(ctx, d, pages, ktypes.LockWrite); err != nil {
		t.Fatal(err)
	}
	dirty := make([]bool, len(pages))
	for i, p := range pages {
		if err := storeBytes(writer, p, bytes.Repeat([]byte{2}, int(d.Attrs.PageSize))); err != nil {
			t.Fatal(err)
		}
		dirty[i] = true
	}
	home.failStore = func(p gaddr.Addr) bool { return p == pages[2] }
	errs := writer.cm(d).ReleaseBatch(ctx, d, pages, ktypes.LockWrite, dirty)
	home.failStore = nil
	if len(reply.Errs) != len(pages) {
		t.Fatalf("release with one failing page replied %q, want %d entries", reply.Errs, len(pages))
	}
	for i, p := range pages {
		want := byte(2)
		if i == 2 {
			want = 1
		}
		if failed := i == 2; (reply.Errs[i] != "") != failed || (errs[i] != nil) != failed {
			t.Fatalf("page %d: reply %q, error %v; want a failure only at index 2", i, reply.Errs[i], errs[i])
		}
		if got := snapshot(home, d, p)[0]; got != want {
			t.Fatalf("page %d holds %d at the home, want %d", i, got, want)
		}
		if tableOf(home, d).Held(p) {
			t.Fatalf("page %d is still locked at the home", i)
		}
	}
}
