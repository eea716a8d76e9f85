package core

import (
	"context"
	"testing"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
)

// TestRemoteReadHoldBlocksWriter pins CREW for remote readers: while one
// node holds a read lock on a window of a remotely homed region, no other
// node gets a write lock on any page of it, however sequential the reader's
// access pattern. Node 2 sweeps the region in 4-page windows and holds each;
// node 3 asks for a write lock on the window's first page with a short
// deadline, which must expire, and must succeed once node 2 has unlocked.
func TestRemoteReadHoldBlocksWriter(t *testing.T) {
	_, nodes := testCluster(t, 3)
	ctx := context.Background()
	const (
		pageSize = uint64(4096)
		pages    = 64
		window   = 4
	)
	start := mkRegion(t, nodes[0], pages*pageSize, region.Attrs{}, "")
	reader, writer := nodes[1], nodes[2]

	granted := 0
	for w := uint64(0); w < pages/window; w++ {
		first := start.MustAdd(w * window * pageSize)
		rlc, err := reader.Lock(ctx, gaddr.Range{Start: first, Size: window * pageSize}, ktypes.LockRead, "")
		if err != nil {
			t.Fatalf("window %d: read lock: %v", w, err)
		}
		if _, err := reader.Read(rlc, first, pageSize); err != nil {
			t.Fatalf("window %d: read: %v", w, err)
		}

		short, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
		wlc, err := writer.Lock(short, gaddr.Range{Start: first, Size: pageSize}, ktypes.LockWrite, "")
		cancel()
		if err == nil {
			granted++
			if err := writer.Unlock(ctx, wlc); err != nil {
				t.Fatalf("window %d: writer unlock: %v", w, err)
			}
		}

		if err := reader.Unlock(ctx, rlc); err != nil {
			t.Fatalf("window %d: read unlock: %v", w, err)
		}
		wlc, err = writer.Lock(ctx, gaddr.Range{Start: first, Size: pageSize}, ktypes.LockWrite, "")
		if err != nil {
			t.Fatalf("window %d: write lock after the reader unlocked: %v", w, err)
		}
		if err := writer.Write(wlc, first, []byte{byte(w + 1)}); err != nil {
			t.Fatalf("window %d: write: %v", w, err)
		}
		if err := writer.Unlock(ctx, wlc); err != nil {
			t.Fatalf("window %d: writer unlock: %v", w, err)
		}
	}
	if granted > 0 {
		t.Fatalf("writer got the write lock in %d of %d windows while a remote read lock was held", granted, pages/window)
	}
}
