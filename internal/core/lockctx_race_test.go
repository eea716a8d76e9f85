package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/ring"
)

// TestConcurrentLockContexts hammers the lock-context table from many
// goroutines across several regions and nodes at once. The interesting
// failures here are races between the Lock/Unlock bookkeeping (the
// lock-context shards, appMu) and the consistency managers rather than
// wrong bytes, so this
// test earns its keep under `go test -race`.
func TestConcurrentLockContexts(t *testing.T) {
	_, nodes := testCluster(t, 3)
	ctx := context.Background()

	const regions = 4
	starts := make([]gaddr.Addr, regions)
	for i := range starts {
		starts[i] = mkRegion(t, nodes[i%len(nodes)], 4096, region.Attrs{}, "alice")
	}

	const workers = 8
	const iters = 15
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := nodes[w%len(nodes)]
			start := starts[w%regions]
			for i := 0; i < iters; i++ {
				mode := ktypes.LockWrite
				if (w+i)%3 == 0 {
					mode = ktypes.LockRead
				}
				lc, err := n.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, mode, "alice")
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: lock: %w", w, i, err)
					return
				}
				if mode.Writes() {
					if err := n.Write(lc, start, []byte{byte(w), byte(i)}); err != nil {
						errs <- fmt.Errorf("worker %d iter %d: write: %w", w, i, err)
						return
					}
				} else {
					if _, err := n.Read(lc, start, 2); err != nil {
						errs <- fmt.Errorf("worker %d iter %d: read: %w", w, i, err)
						return
					}
				}
				if err := n.Unlock(ctx, lc); err != nil {
					errs <- fmt.Errorf("worker %d iter %d: unlock: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The lock table must be fully drained afterwards: a final exclusive
	// lock on every region succeeds.
	for i, start := range starts {
		lc, err := nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "alice")
		if err != nil {
			t.Fatalf("final lock region %d: %v", i, err)
		}
		if err := nodes[0].Unlock(ctx, lc); err != nil {
			t.Fatalf("final unlock region %d: %v", i, err)
		}
	}
}

// TestLockSpanSlotsSurviveDetachedCast covers the two-slot rule: a Lock
// whose cold lookup falls through the ring to the repair path re-announces
// the region under Lock's context — the op.lock slot inside the lock
// context — and the caller then starts op.unlock in Unlock. The announce
// now goes out on the caller's goroutine, so nothing reads the op.lock
// slot after Lock returns; the test keeps the repair path and the two
// slots race-free together. Meaningful under -race.
func TestLockSpanSlotsSurviveDetachedCast(t *testing.T) {
	_, nodes := testCluster(t, 4)
	ctx := context.Background()
	heartbeatAll(nodes)
	reader := nodes[3]

	// A region neither of whose ring owners is its home or the reader:
	// once the owners forget it, no ring answer exists and the lookup
	// must walk, then cast the repair to both (remote) owners.
	var start gaddr.Addr
	var owners []*Node
	for attempt := 0; owners == nil; attempt++ {
		if attempt == 32 {
			t.Skip("no region whose ring owners exclude its home and the reader")
		}
		home := nodes[attempt%3]
		s := mkRegion(t, home, ring.BucketSize, region.Attrs{}, "alice")
		ids := reader.Ring().Owners(ring.BucketOf(s))
		if slices.Contains(ids, home.cfg.ID) || slices.Contains(ids, reader.cfg.ID) {
			continue
		}
		start = s
		for _, id := range ids {
			owners = append(owners, nodes[id-1])
		}
	}

	rng := gaddr.Range{Start: start, Size: 4096}
	for round := 0; round < 10; round++ {
		for _, o := range owners {
			o.ringTable.Remove(start)
		}
		reader.rdir.Remove(start)
		fallbacks := reader.mRingFallbacks.Load()
		lc, err := reader.Lock(ctx, rng, ktypes.LockRead, "alice")
		if err != nil {
			t.Fatal(err)
		}
		if reader.mRingFallbacks.Load() == fallbacks {
			t.Fatal("the lookup did not take the repair path")
		}
		if err := reader.Unlock(ctx, lc); err != nil {
			t.Fatal(err)
		}
	}
}
