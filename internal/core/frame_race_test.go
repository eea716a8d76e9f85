package core

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
)

// TestFrameSharingRaceCOW races readers holding shared page frames against
// a lock-holding writer that triggers copy-on-write. Two reader flavors
// run concurrently: daemon-style readers that pull the frame straight from
// the store (as the replica push and migration paths do) and client-style
// readers that hold zero-copy ReadView slices under a read lock. Under
// -race this validates the refcount contract end to end: a frame obtained
// while shared is immutable — Write mutates a private copy via Exclusive —
// and stays alive until its last reference drops.
func TestFrameSharingRaceCOW(t *testing.T) {
	_, nodes := testCluster(t, 1)
	n := nodes[0]
	ctx := context.Background()
	start := mkRegion(t, n, 4096, region.Attrs{}, "")

	// Seed a uniform page so torn frames are detectable: every snapshot a
	// reader takes must be internally consistent across the written span.
	seed := make([]byte, 4096)
	for i := range seed {
		seed[i] = 1
	}
	lc, err := n.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Write(lc, start, seed); err != nil {
		t.Fatal(err)
	}
	if err := n.Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}

	const (
		writes       = 200
		storeReaders = 3
		viewReaders  = 2
	)
	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		stop.Store(true)
		t.Errorf(format, args...)
	}

	// Daemon-style readers: borrow the store's frame with no lock held.
	for r := 0; r < storeReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				f, ok := n.Store().Get(start)
				if !ok {
					continue
				}
				b := f.Bytes()
				v := b[64]
				for _, x := range b[64:192] {
					if x != v {
						fail("torn store snapshot: %d then %d", v, x)
						break
					}
				}
				f.Release()
			}
		}()
	}

	// Client-style readers: zero-copy views pinned by a read lock.
	for r := 0; r < viewReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rlc, err := n.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
				if err != nil {
					fail("read lock: %v", err)
					return
				}
				view, err := n.ReadView(rlc, start.MustAdd(64), 128)
				if err != nil {
					fail("read view: %v", err)
				} else {
					v := view[0]
					for _, x := range view {
						if x != v {
							fail("torn view: %d then %d", v, x)
							break
						}
					}
				}
				if err := n.Unlock(ctx, rlc); err != nil {
					fail("unlock: %v", err)
					return
				}
			}
		}()
	}

	// Writer: partial-page writes force the copy-on-write path whenever a
	// reader shares the store's frame.
	chunk := make([]byte, 128)
	for i := 0; i < writes && !stop.Load(); i++ {
		for j := range chunk {
			chunk[j] = byte(i + 2)
		}
		wlc, err := n.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "")
		if err != nil {
			t.Fatalf("write lock %d: %v", i, err)
		}
		if err := n.Write(wlc, start.MustAdd(64), chunk); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if err := n.Unlock(ctx, wlc); err != nil {
			t.Fatalf("write unlock %d: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	// The last write must be visible through the copying read path.
	rlc, err := n.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.Read(rlc, start.MustAdd(64), 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Unlock(ctx, rlc); err != nil {
		t.Fatal(err)
	}
	want := byte(writes + 1)
	for _, x := range got {
		if x != want {
			t.Fatalf("final read saw %d, want %d", x, want)
		}
	}
}

// TestBorrowedFrameStableAcrossWriter pins the store's frame the way the
// replica push and migration paths do, lets a locked writer overwrite the
// page, and checks the borrowed frame still serves the pre-write bytes:
// with the frame shared, Write must copy-on-write a private frame rather
// than mutate in place, and the borrower's reference keeps the superseded
// frame alive after the store swaps it out.
func TestBorrowedFrameStableAcrossWriter(t *testing.T) {
	_, nodes := testCluster(t, 1)
	n := nodes[0]
	ctx := context.Background()
	start := mkRegion(t, n, 4096, region.Attrs{}, "")

	lc, err := n.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Write(lc, start, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := n.Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}

	f, ok := n.Store().Get(start)
	if !ok {
		t.Fatal("page missing after seed write")
	}
	defer f.Release()
	if string(f.Bytes()[:6]) != "before" {
		t.Fatalf("borrowed frame = %q", f.Bytes()[:6])
	}

	// Partial write while the frame is shared: the store and this test
	// both hold references, so the writer must take the Exclusive path.
	wlc, err := n.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Write(wlc, start, []byte("after!")); err != nil {
		t.Fatal(err)
	}
	if err := n.Unlock(ctx, wlc); err != nil {
		t.Fatal(err)
	}

	if string(f.Bytes()[:6]) != "before" {
		t.Fatalf("borrowed frame mutated under the reader: %q", f.Bytes()[:6])
	}
	if got, ok := storedCopy(n, start); !ok || string(got[:6]) != "after!" {
		t.Fatalf("store after write = %q, %v", got[:6], ok)
	}
}

// TestInprocGrantSharesHomeFrame: over the inproc link a grant hands the
// home's page frames to the consumer by reference. After a 16-page remote
// read batch every frame the consumer keeps is the very frame the home's
// store holds, and a partial overwrite at the home (copy-on-write, as the
// frame is shared) leaves the consumer's bytes as they were.
func TestInprocGrantSharesHomeFrame(t *testing.T) {
	const pages = 16
	_, nodes := testCluster(t, 2)
	home, consumer := nodes[0], nodes[1]
	start := mkRegion(t, home, pages*4096, region.Attrs{}, "admin")
	fillPages(t, home, start, pages)
	lockUnlock(t, consumer, gaddr.Range{Start: start, Size: pages * 4096}, ktypes.LockRead)

	held := make([][]byte, pages)
	for i := range pages {
		page := start.MustAdd(uint64(i) * 4096)
		fc, ok := consumer.Store().Get(page)
		if !ok {
			t.Fatalf("page %d: not resident at the consumer after the read batch", i)
		}
		defer fc.Release()
		fh, ok := home.Store().Get(page)
		if !ok {
			t.Fatalf("page %d: not resident at the home", i)
		}
		fh.Release()
		if fc != fh {
			t.Errorf("page %d: the consumer's frame is a copy of the home's", i)
		}
		held[i] = fc.Bytes()
	}

	ctx := context.Background()
	lc, err := home.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "admin")
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Write(lc, start, []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	if err := home.Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}
	if got, _ := storedCopy(home, start); string(got[:11]) != "overwritten" {
		t.Fatalf("home page 0 = %q after the overwrite", got[:11])
	}
	for i, b := range held {
		if !bytes.Equal(b, bytes.Repeat([]byte{byte(i + 1)}, 4096)) {
			t.Fatalf("page %d: the consumer's bytes changed under the home's write", i)
		}
	}
}
