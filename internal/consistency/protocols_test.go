package consistency

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"khazana/internal/frame"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/wire"
)

// --- CREW -------------------------------------------------------------------

func TestCREWWriteThenReadEverywhere(t *testing.T) {
	d := testDesc(region.CREW)
	hosts := cluster(t, 4, d)
	page := d.Range.Start

	lockWrite(t, hosts[2], d, page, func(data []byte) { copy(data, "written by n3") })
	for _, h := range hosts {
		got := lockRead(t, h, d, page)
		if string(got[:13]) != "written by n3" {
			t.Fatalf("%v read %q", h.id, got[:13])
		}
	}
}

func TestCREWSequentialCounter(t *testing.T) {
	// Strict consistency: concurrent increments from every node must all
	// be preserved (Lamport-sequential behaviour, paper §2/§5).
	d := testDesc(region.CREW)
	hosts := cluster(t, 4, d)
	page := d.Range.Start
	const perNode = 25

	var wg sync.WaitGroup
	for _, h := range hosts {
		wg.Add(1)
		go func(h *testHost) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perNode; i++ {
				if err := acquirePage(ctx, h.cm(d), d, page, ktypes.LockWrite); err != nil {
					t.Error(err)
					return
				}
				data := snapshot(h, d, page)
				v := binary.LittleEndian.Uint64(data)
				binary.LittleEndian.PutUint64(data, v+1)
				_ = storeBytes(h, page, data)
				if err := releasePage(ctx, h.cm(d), d, page, ktypes.LockWrite, true); err != nil {
					t.Error(err)
					return
				}
			}
		}(h)
	}
	wg.Wait()
	got := binary.LittleEndian.Uint64(lockRead(t, hosts[0], d, page))
	if got != uint64(len(hosts)*perNode) {
		t.Fatalf("counter = %d, want %d: lost updates under CREW", got, len(hosts)*perNode)
	}
}

func TestCREWWriteLockExcludesReaders(t *testing.T) {
	d := testDesc(region.CREW)
	hosts := cluster(t, 3, d)
	page := d.Range.Start
	ctx := context.Background()

	if err := acquirePage(ctx, hosts[1].cm(d), d, page, ktypes.LockWrite); err != nil {
		t.Fatal(err)
	}
	readDone := make(chan struct{})
	go func() {
		_ = lockRead(t, hosts[2], d, page)
		close(readDone)
	}()
	select {
	case <-readDone:
		t.Fatal("read granted while write lock held on another node")
	case <-time.After(50 * time.Millisecond):
	}
	if err := releasePage(ctx, hosts[1].cm(d), d, page, ktypes.LockWrite, true); err != nil {
		t.Fatal(err)
	}
	select {
	case <-readDone:
	case <-time.After(2 * time.Second):
		t.Fatal("read never granted after write release")
	}
}

func TestCREWConcurrentReadersAllowed(t *testing.T) {
	d := testDesc(region.CREW)
	hosts := cluster(t, 3, d)
	page := d.Range.Start
	ctx := context.Background()

	if err := acquirePage(ctx, hosts[1].cm(d), d, page, ktypes.LockRead); err != nil {
		t.Fatal(err)
	}
	// A second concurrent reader must be granted immediately.
	done := make(chan error, 1)
	go func() {
		done <- acquirePage(ctx, hosts[2].cm(d), d, page, ktypes.LockRead)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("concurrent reader blocked under CREW")
	}
	_ = releasePage(ctx, hosts[1].cm(d), d, page, ktypes.LockRead, false)
	_ = releasePage(ctx, hosts[2].cm(d), d, page, ktypes.LockRead, false)
}

func TestCREWInvalidationDropsStaleCopies(t *testing.T) {
	d := testDesc(region.CREW)
	hosts := cluster(t, 3, d)
	page := d.Range.Start

	lockWrite(t, hosts[0], d, page, func(data []byte) { copy(data, "v1") })
	_ = lockRead(t, hosts[2], d, page) // n3 caches v1
	if !resident(hosts[2], page) {
		t.Fatal("n3 should hold a copy")
	}
	lockWrite(t, hosts[1], d, page, func(data []byte) { copy(data, "v2") })
	// n3's copy must have been invalidated (it held no lock).
	if resident(hosts[2], page) {
		t.Fatal("stale copy survived invalidation")
	}
	if got := lockRead(t, hosts[2], d, page); string(got[:2]) != "v2" {
		t.Fatalf("n3 reread = %q", got[:2])
	}
}

func TestCREWZeroFillOnFirstTouch(t *testing.T) {
	d := testDesc(region.CREW)
	hosts := cluster(t, 2, d)
	got := lockRead(t, hosts[1], d, d.Range.Start)
	if len(got) != int(d.Attrs.PageSize) {
		t.Fatalf("len = %d", len(got))
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
}

func TestCREWStaleHomeRejected(t *testing.T) {
	d := testDesc(region.CREW)
	hosts := cluster(t, 3, d)
	// A requester with a stale descriptor pointing at a non-home node
	// must get a clean failure it can react to (paper §3.2).
	stale := d.Clone()
	stale.Home = []ktypes.NodeID{3}
	err := acquirePage(context.Background(), hosts[1].cm(d), stale, d.Range.Start, ktypes.LockRead)
	if err == nil {
		t.Fatal("acquire against non-home should fail")
	}
}

func TestCREWVersionAdvancesPerWrite(t *testing.T) {
	d := testDesc(region.CREW)
	hosts := cluster(t, 2, d)
	page := d.Range.Start
	for i := 0; i < 3; i++ {
		lockWrite(t, hosts[1], d, page, func(data []byte) { data[0]++ })
	}
	entry, ok := entryOf(hosts[0], page)
	if !ok || entry.Version != 3 {
		t.Fatalf("home version = %d, %v; want 3", entry.Version, ok)
	}
}

// --- Release consistency ------------------------------------------------

func TestReleaseWriteVisibleAtNextAcquire(t *testing.T) {
	d := testDesc(region.Release)
	hosts := cluster(t, 3, d)
	page := d.Range.Start

	lockWrite(t, hosts[1], d, page, func(data []byte) { copy(data, "released") })
	got := lockRead(t, hosts[2], d, page)
	if string(got[:8]) != "released" {
		t.Fatalf("read after release = %q", got[:8])
	}
}

// TestReleaseCachedReadAvoidsRefetch counts what a reader's acquire costs:
// one PageReqBatch that validates its copy. A current copy comes back as
// Current with no page bytes; a stale one comes back with them, in the
// same round trip.
func TestReleaseCachedReadAvoidsRefetch(t *testing.T) {
	d := testDesc(region.Release)
	hosts := cluster(t, 2, d)
	page := d.Range.Start
	pageSize := uint64(d.Attrs.PageSize)
	read := func(what string, want byte, withBytes bool) {
		t.Helper()
		rpcs, wireBytes := hosts[0].net.Stats()
		got := lockRead(t, hosts[1], d, page)
		rpcs2, wireBytes2 := hosts[0].net.Stats()
		rpcs, wireBytes = rpcs2-rpcs, wireBytes2-wireBytes
		if got[0] != want {
			t.Fatalf("%s read = %q, want %q", what, got[0], want)
		}
		if rpcs != 1 || (wireBytes >= pageSize) != withBytes {
			t.Fatalf("%s read cost %d RPCs and %d wire bytes, want 1 RPC %s page bytes", what, rpcs, wireBytes,
				map[bool]string{true: "with", false: "without"}[withBytes])
		}
	}

	lockWrite(t, hosts[0], d, page, func(data []byte) { copy(data, "x") })
	read("first", 'x', true)
	read("cached", 'x', false)
	lockWrite(t, hosts[0], d, page, func(data []byte) { copy(data, "y") })
	read("stale", 'y', true)
}

func TestReleaseConcurrentWritersLastPushWins(t *testing.T) {
	d := testDesc(region.Release)
	hosts := cluster(t, 3, d)
	page := d.Range.Start
	ctx := context.Background()

	// Both non-home nodes write under write-shared locks (no global
	// exclusion under release consistency).
	for _, h := range []*testHost{hosts[1], hosts[2]} {
		if err := acquirePage(ctx, h.cm(d), d, page, ktypes.LockWriteShared); err != nil {
			t.Fatal(err)
		}
	}
	write := func(h *testHost, val byte) {
		data := snapshot(h, d, page)
		data[0] = val
		_ = storeBytes(h, page, data)
		if err := releasePage(ctx, h.cm(d), d, page, ktypes.LockWriteShared, true); err != nil {
			t.Fatal(err)
		}
	}
	write(hosts[1], 'a')
	write(hosts[2], 'b') // last release wins at home
	got := lockRead(t, hosts[0], d, page)
	if got[0] != 'b' {
		t.Fatalf("home value = %q, want 'b' (last release)", got[0])
	}
}

func TestReleaseStaleReaderRefetches(t *testing.T) {
	d := testDesc(region.Release)
	hosts := cluster(t, 3, d)
	page := d.Range.Start

	lockWrite(t, hosts[1], d, page, func(data []byte) { copy(data, "v1") })
	_ = lockRead(t, hosts[2], d, page)
	lockWrite(t, hosts[1], d, page, func(data []byte) { copy(data, "v2") })
	// n3 cached v1; RC requires its next acquire to observe v2.
	got := lockRead(t, hosts[2], d, page)
	if string(got[:2]) != "v2" {
		t.Fatalf("read = %q, want v2", got[:2])
	}
}

func TestReleaseZeroFill(t *testing.T) {
	d := testDesc(region.Release)
	hosts := cluster(t, 2, d)
	got := lockRead(t, hosts[1], d, d.Range.Start)
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten page must read as zeroes")
		}
	}
}

// --- Eventual consistency -------------------------------------------------

func TestEventualConvergence(t *testing.T) {
	d := testDesc(region.Eventual)
	hosts := cluster(t, 4, d)
	page := d.Range.Start

	// Seed replicas everywhere.
	for _, h := range hosts {
		_ = lockRead(t, h, d, page)
	}
	lockWrite(t, hosts[3], d, page, func(data []byte) { copy(data, "gossip") })
	// Home got the push and gossiped to all replica sites synchronously.
	for _, h := range hosts {
		got := lockRead(t, h, d, page)
		if string(got[:6]) != "gossip" {
			t.Fatalf("%v = %q, not converged", h.id, got[:6])
		}
	}
}

// dropUpdates makes h miss every UpdateBatch sent to it until the
// returned func restores delivery: its writes are then concurrent with
// the ones it misses.
func dropUpdates(h *testHost) (restore func()) {
	h.intercept = func(_ ktypes.NodeID, m wire.Msg) error {
		if _, ok := m.(*wire.UpdateBatch); ok {
			return errors.New("update lost")
		}
		return nil
	}
	return func() { h.intercept = nil }
}

// TestEventualLastWriterWins: of two concurrent writes, the one at the
// higher page version wins everywhere, its writer's node ID aside. n3
// writes twice while n2 misses the gossip, so n2's write, made over the
// copy it had read, is the older one.
func TestEventualLastWriterWins(t *testing.T) {
	d := testDesc(region.Eventual)
	hosts := cluster(t, 3, d)
	page := d.Range.Start
	for _, h := range hosts {
		_ = lockRead(t, h, d, page)
	}
	restore := dropUpdates(hosts[1])
	lockWrite(t, hosts[2], d, page, func(data []byte) { data[0] = 'b' }) // version 1
	lockWrite(t, hosts[2], d, page, func(data []byte) { data[0] = 'B' }) // version 2
	restore()
	lockWrite(t, hosts[1], d, page, func(data []byte) { data[0] = 'A' }) // version 1: older, must lose
	for _, h := range hosts {
		if got := lockRead(t, h, d, page); got[0] != 'B' {
			t.Fatalf("%v = %q, want 'B' (the newer version)", h.id, got[0])
		}
	}
}

// TestEventualTieBreaksOnNodeID: two concurrent writes at the same page
// version go to the higher node's.
func TestEventualTieBreaksOnNodeID(t *testing.T) {
	d := testDesc(region.Eventual)
	hosts := cluster(t, 3, d)
	page := d.Range.Start
	for _, h := range hosts {
		_ = lockRead(t, h, d, page)
	}
	restore := dropUpdates(hosts[1])
	lockWrite(t, hosts[2], d, page, func(data []byte) { data[0] = 'H' }) // version 1 by n3
	restore()
	lockWrite(t, hosts[1], d, page, func(data []byte) { data[0] = 'L' }) // version 1 by n2: tie
	for _, h := range hosts {
		if got := lockRead(t, h, d, page); got[0] != 'H' {
			t.Fatalf("%v = %q, want 'H' (higher node ID wins tie)", h.id, got[0])
		}
	}
}

// TestEventualFirstCopyKeepsStamp: an eventual replica's first copy of a
// page carries the version and writer of the write it holds, so a late
// update of an older version loses to it.
func TestEventualFirstCopyKeepsStamp(t *testing.T) {
	d := testDesc(region.Eventual)
	hosts := cluster(t, 3, d)
	home, writer, reader := hosts[0], hosts[1], hosts[2]
	page := d.Range.Start
	lockWrite(t, writer, d, page, func(data []byte) { data[0] = 'A' }) // version 1
	lockWrite(t, writer, d, page, func(data []byte) { data[0] = 'B' }) // version 2
	if got := lockRead(t, reader, d, page); got[0] != 'B' {
		t.Fatalf("first fetch read %q, want 'B'", got[0])
	}
	// The version-1 update, written before the copy the reader holds,
	// arrives late.
	data := make([]byte, d.Attrs.PageSize)
	data[0] = 'A'
	late := wire.UpdateItem{Page: page, Version: 1, Origin: writer.id}
	f := frame.Copy(data)
	late.SetFrame(f)
	f.Release()
	if _, err := reader.handle(context.Background(), home.id, &wire.UpdateBatch{From: home.id, Items: []wire.UpdateItem{late}}); err != nil {
		t.Fatal(err)
	}
	if got := lockRead(t, reader, d, page); got[0] != 'B' {
		t.Errorf("replica = %q after a version-1 update over its version-2 copy, want 'B'", got[0])
	}
}

// TestEventualCausalWriteWinsUnderSkew: a write made after its writer
// read another must win, however often the other's writer had written.
// n2 writes 50 times, n3 reads n2's 'A' and then writes 'B', and every
// node, n2 included, reads 'B'.
func TestEventualCausalWriteWinsUnderSkew(t *testing.T) {
	d := testDesc(region.Eventual)
	hosts := cluster(t, 3, d)
	page := d.Range.Start
	for range 50 {
		lockWrite(t, hosts[1], d, page, func(data []byte) { data[0] = 'A' })
	}
	if got := lockRead(t, hosts[2], d, page); got[0] != 'A' {
		t.Fatalf("n3 read %q before its write, want 'A'", got[0])
	}
	lockWrite(t, hosts[2], d, page, func(data []byte) { data[0] = 'B' })
	for _, h := range hosts {
		if got := lockRead(t, h, d, page); got[0] != 'B' {
			t.Errorf("n%d reads %q after n3 wrote 'B' over the 'A' it had read, want 'B'", h.id, got[0])
		}
	}
}

// TestEventualUpdateParkedDuringWriteHold: an update pushed to a page
// while a local writer holds it parks, and the release settles it against
// the writer's claim by (version, node). Both writes are at version 1, so
// the higher node's wins: the parked 'P' when it comes from a higher node
// than the writer's 'W', the claim otherwise. Every node then reads the
// same bytes.
func TestEventualUpdateParkedDuringWriteHold(t *testing.T) {
	for _, tc := range []struct {
		name           string
		holder, pusher int // host indexes
		want           byte
	}{
		{"parked-from-higher-node-wins", 1, 2, 'P'},
		{"claim-from-higher-node-wins", 2, 1, 'W'},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := testDesc(region.Eventual)
			hosts := cluster(t, 3, d)
			page := d.Range.Start
			for _, h := range hosts {
				_ = lockRead(t, h, d, page)
			}
			holder, ctx := hosts[tc.holder], context.Background()
			if err := acquirePage(ctx, holder.cm(d), d, page, ktypes.LockWrite); err != nil {
				t.Fatal(err)
			}
			// The pusher's write reaches the home, whose gossip meets the
			// holder's write lock.
			lockWrite(t, hosts[tc.pusher], d, page, func(data []byte) { data[0] = 'P' })
			tab := tableOf(holder, d)
			mu := tab.PushLock()
			mu.Lock()
			parked := tab.Rec(page).Pending
			mu.Unlock()
			if parked == nil || parked.Version != 1 || parked.Origin != hosts[tc.pusher].id {
				t.Fatalf("parked update = %+v, want version 1 from %v", parked, hosts[tc.pusher].id)
			}
			data := snapshot(holder, d, page)
			data[0] = 'W'
			if err := storeBytes(holder, page, data); err != nil {
				t.Fatal(err)
			}
			if err := releasePage(ctx, holder.cm(d), d, page, ktypes.LockWrite, true); err != nil {
				t.Fatal(err)
			}
			for _, h := range hosts {
				if got := lockRead(t, h, d, page); got[0] != tc.want {
					t.Errorf("%v reads %q, want %q", h.id, got[0], tc.want)
				}
			}
		})
	}
}

func TestEventualReadsAreLocalAfterFirstFetch(t *testing.T) {
	d := testDesc(region.Eventual)
	hosts := cluster(t, 2, d)
	page := d.Range.Start
	_ = lockRead(t, hosts[1], d, page)
	// Subsequent reads must not fail even if the home vanishes: they are
	// served from the local replica (fast response, §3.3).
	stale := d.Clone()
	stale.Home = []ktypes.NodeID{99} // unreachable home
	ctx := context.Background()
	if err := acquirePage(ctx, hosts[1].cm(d), stale, page, ktypes.LockRead); err != nil {
		t.Fatalf("local read required the home: %v", err)
	}
	_ = releasePage(ctx, hosts[1].cm(d), stale, page, ktypes.LockRead, false)
}

func TestEventualConcurrentWritersConverge(t *testing.T) {
	d := testDesc(region.Eventual)
	hosts := cluster(t, 4, d)
	page := d.Range.Start
	for _, h := range hosts {
		_ = lockRead(t, h, d, page)
	}
	var wg sync.WaitGroup
	for i, h := range hosts {
		wg.Add(1)
		go func(i int, h *testHost) {
			defer wg.Done()
			ctx := context.Background()
			for j := 0; j < 10; j++ {
				if err := acquirePage(ctx, h.cm(d), d, page, ktypes.LockWrite); err != nil {
					t.Error(err)
					return
				}
				data := snapshot(h, d, page)
				data[0] = byte('a' + i)
				_ = storeBytes(h, page, data)
				if err := releasePage(ctx, h.cm(d), d, page, ktypes.LockWrite, true); err != nil {
					t.Error(err)
					return
				}
			}
		}(i, h)
	}
	wg.Wait()
	// All replicas must converge to the same final value.
	want := lockRead(t, hosts[0], d, page)[0]
	for _, h := range hosts[1:] {
		if got := lockRead(t, h, d, page)[0]; got != want {
			t.Fatalf("%v = %q, home = %q: not converged", h.id, got, want)
		}
	}
}

// --- framework --------------------------------------------------------------

func TestRegistryBuildsAllProtocols(t *testing.T) {
	reg := NewRegistry()
	protos := reg.Protocols()
	if len(protos) != 3 {
		t.Fatalf("protocols = %v", protos)
	}
	d := testDesc(region.CREW)
	hosts := cluster(t, 1, d)
	cms := reg.Build(hosts[0])
	for p, cm := range cms {
		if cm.Protocol() != p {
			t.Fatalf("cm for %v reports %v", p, cm.Protocol())
		}
	}
}

func TestRegistryCustomProtocol(t *testing.T) {
	// "Plugging in new protocols or consistency managers is only a matter
	// of registering them" (§5).
	reg := NewRegistry()
	called := false
	reg.Register(region.Protocol(42), func(h Host) CM {
		called = true
		return NewCREW(h)
	})
	d := testDesc(region.CREW)
	hosts := cluster(t, 1, d)
	cms := reg.Build(hosts[0])
	if !called {
		t.Fatal("custom constructor not invoked")
	}
	if _, ok := cms[region.Protocol(42)]; !ok {
		t.Fatal("custom protocol missing from build")
	}
}

func TestUnknownMessageRejected(t *testing.T) {
	d := testDesc(region.CREW)
	hosts := cluster(t, 1, d)
	for _, cm := range hosts[0].cms {
		if _, err := cm.Handle(context.Background(), d, 1, &wire.Ping{From: 1}); err == nil {
			t.Fatalf("%v: unknown message should be rejected", cm.Protocol())
		}
	}
}

func TestHandlerPathThroughTransport(t *testing.T) {
	// End-to-end through the simulated network: n2 writes, n1 (home) has
	// the data in its own store via write-through.
	d := testDesc(region.CREW)
	hosts := cluster(t, 2, d)
	page := d.Range.Start
	lockWrite(t, hosts[1], d, page, func(data []byte) { copy(data, "thru") })
	f, ok := hosts[0].LoadPage(hosts[0].rec(page))
	if !ok {
		t.Fatal("home store missing page")
	}
	defer f.Release()
	if string(f.Bytes()[:4]) != "thru" {
		t.Fatalf("home store = %q", f.Bytes()[:4])
	}
}
