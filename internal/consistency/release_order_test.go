package consistency

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/wire"
)

// errDropped is what a sender sees for a message the test's intercept
// dropped or held back.
var errDropped = errors.New("test: message dropped")

// carriesPages reports whether m is a release's append, carrying pages.
func carriesPages(m wire.Msg) bool {
	msg, ok := m.(*wire.ReplAppend)
	return ok && len(msg.Pages) > 0
}

// frameVersion returns the version of the frame h stores for page, 0 when
// it stores none.
func frameVersion(h *testHost, page gaddr.Addr) uint64 {
	f, ok := h.LoadPage(page)
	if !ok {
		return 0
	}
	defer f.Release()
	return f.Version()
}

// TestLateWriteThroughKeepsNewerBytes: a secondary whose copy of release
// V's write-through arrives after V+1's has landed keeps V+1's bytes and
// label. V's message is held back — the sender sees it fail, as after a
// timeout — and delivered once V+1's release has returned.
func TestLateWriteThroughKeepsNewerBytes(t *testing.T) {
	const pageCount = 4
	d := replicatedDesc(pageCount)
	hosts := cluster(t, 4, d)
	pages := d.Pages(0, d.Range.Size)
	home, late, writer := hosts[0], hosts[2], hosts[3]
	writeAll(t, writer, d, pages, 1)

	release, delivered := make(chan struct{}), make(chan struct{})
	held := false
	late.intercept = func(from ktypes.NodeID, m wire.Msg) error {
		if held || !carriesPages(m) {
			return nil
		}
		held = true
		// The inbound message is recycled once the handler returns: hold
		// a decoded copy with frames of its own.
		cp, err := wire.Unmarshal(wire.Marshal(m))
		if err != nil {
			t.Errorf("copy of %T: %v", m, err)
			return err
		}
		go func() {
			defer close(delivered)
			defer wire.Recycle(cp)
			<-release
			if _, err := late.route(context.Background(), from, cp); err != nil {
				t.Errorf("late delivery of %T: %v", cp, err)
			}
		}()
		return errDropped
	}
	writeAll(t, writer, d, pages, 2) // V: held back from late
	writeAll(t, writer, d, pages, 3) // V+1: lands
	close(release)
	<-delivered
	if !held {
		t.Fatal("no page-carrying message reached the secondary")
	}

	for _, p := range pages {
		want, _ := home.dir.Lookup(p)
		got, _ := late.dir.Lookup(p)
		if b := snapshot(late, d, p); b[0] != 3 || got.Version != want.Version || frameVersion(late, p) != want.Version {
			t.Fatalf("secondary holds %#x labeled v%d (frame v%d) on %v after the late write-through, want 0x3 labeled v%d",
				b[0], got.Version, frameVersion(late, p), p, want.Version)
		}
	}
}

// TestCommittedVersionHasItsBytes: while every page-carrying message to one
// secondary is dropped, seeded releases of random page subsets from random
// writers run, and after each the secondary's committed log version of
// every page is at most the version of the frame it stores — a release
// whose bytes it lacks is never committed there. (Once pages reach it
// again, the catch-up behind the first one replays the missed entries
// without their pages; that case is not covered here.)
func TestCommittedVersionHasItsBytes(t *testing.T) {
	const pageCount, releases = 8, 24
	d := replicatedDesc(pageCount)
	hosts := cluster(t, 4, d)
	pages := d.Pages(0, d.Range.Size)
	missed := hosts[2]
	writeAll(t, hosts[0], d, pages, 1)

	missed.intercept = func(_ ktypes.NodeID, m wire.Msg) error {
		if carriesPages(m) {
			return errDropped
		}
		return nil
	}
	rng := rand.New(rand.NewSource(38))
	for r := 0; r < releases; r++ {
		writer := hosts[[]int{0, 3}[rng.Intn(2)]]
		var subset []gaddr.Addr
		for _, p := range pages {
			if rng.Intn(2) == 0 {
				subset = append(subset, p)
			}
		}
		if len(subset) == 0 {
			subset = pages[:1]
		}
		writeAll(t, writer, d, subset, byte(r+2))

		state, _ := missed.repl.Snapshot(d.Range.Start)
		for _, p := range pages {
			if committed, held := state.PageVersion[p], frameVersion(missed, p); committed > held {
				t.Fatalf("release %d: secondary's log commits %v at v%d but its frame is v%d", r, p, committed, held)
			}
		}
	}
}

// TestStaleTermAppendStoresNothing: a release's append from a deposed
// leader — its term is older than the secondary's — is rejected before any
// of its pages is stored.
func TestStaleTermAppendStoresNothing(t *testing.T) {
	d := replicatedDesc(2)
	hosts := cluster(t, 3, d)
	sec := hosts[1]
	page := d.Range.Start
	if ack := sec.repl.HandleAppend(&wire.ReplAppend{Region: d.Range.Start, From: 3, Term: 2}); !ack.OK {
		t.Fatalf("term-2 heartbeat rejected: %+v", ack)
	}

	stale := &wire.ReplAppend{
		Region: d.Range.Start, From: 1, Term: 1,
		Entries: []wire.ReplEntry{{Index: 1, Term: 1, Region: d.Range.Start, Op: wire.ReplOpRelease, Page: page, Node: 1, Val: 7}},
		Pages:   []wire.UpdateItem{{Page: page, Version: 7, Origin: 1}},
	}
	f := frame.Copy(bytes.Repeat([]byte{0xEE}, int(d.Attrs.PageSize)))
	stale.Pages[0].SetFrame(f)
	f.Release()
	defer stale.ReleaseFrames()

	resp, err := sec.cm(d).Handle(context.Background(), d, 1, stale)
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := resp.(*wire.ReplAck); !ok || ack.OK || ack.Term != 2 {
		t.Fatalf("stale-term append answered %+v, want a NACK at term 2", resp)
	}
	if resident(sec, page) {
		t.Fatal("the stale-term append's page was stored")
	}
	if e, _ := sec.dir.Lookup(page); e.Version != 0 {
		t.Fatalf("the stale-term append moved the page to v%d", e.Version)
	}
	if _, last := sec.repl.Progress(d.Range.Start); last != 0 {
		t.Fatalf("the stale-term append's entry was appended (last index %d)", last)
	}
}

// TestConcurrentPushesKeepNewerBytes: two pushes of one page at a
// secondary — V's and V+1's, as when V's append timed out at the sender
// while its message was still in flight — run concurrently, V's held
// between its version check and its store. V+1's waits for V's to finish
// instead of passing the same check, so the secondary ends with V+1's
// bytes under V+1's label, not V's bytes under V+1's label.
func TestConcurrentPushesKeepNewerBytes(t *testing.T) {
	d := replicatedDesc(1)
	hosts := cluster(t, 3, d)
	sec, page := hosts[1], d.Range.Start
	item := func(version uint64) *wire.UpdateItem {
		it := &wire.UpdateItem{Page: page, Version: version, Origin: 1}
		f := frame.Copy(bytes.Repeat([]byte{byte(version)}, int(d.Attrs.PageSize)))
		it.SetFrame(f)
		f.Release()
		return it
	}
	older, newer := item(2), item(3)

	inStore, release := make(chan struct{}), make(chan struct{})
	sec.storing = func(_ gaddr.Addr, f *frame.Frame) {
		if f.Bytes()[0] == 2 {
			close(inStore)
			<-release
		}
	}
	var wg sync.WaitGroup
	push := func(it *wire.UpdateItem) chan struct{} {
		done := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			if err := storeUpdate(sec, 1, it); err != nil {
				t.Errorf("push of v%d: %v", it.Version, err)
			}
		}()
		return done
	}
	push(older)
	<-inStore
	select { // V+1's push must not overtake V's store
	case <-push(newer):
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	wg.Wait()

	e, _ := sec.dir.Lookup(page)
	if b := snapshot(sec, d, page); b[0] != 3 || e.Version != 3 {
		t.Fatalf("secondary holds %#x labeled v%d after concurrent pushes, want 0x3 labeled v3", b[0], e.Version)
	}
}
