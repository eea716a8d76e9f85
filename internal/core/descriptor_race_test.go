package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/security"
)

// TestPublishedDescriptorsImmutable drives every descriptor mutator —
// SetAttr, Free/Allocate, MigrateRegion there and back — against readers
// that hold looked-up descriptors on the home node. Lookups hand out the
// stored pointer, so the mutators must publish new versions and never
// write a published one: a descriptor a reader holds never changes, and
// every sighting of one epoch shows the same Home, Allocated and ACL. Run
// under -race, which also catches an in-place write directly.
func TestPublishedDescriptorsImmutable(t *testing.T) {
	_, nodes := testCluster(t, 2)
	ctx := context.Background()
	home := nodes[0]
	start := mkRegion(t, home, 4096, region.Attrs{}, "admin")
	rng := gaddr.Range{Start: start, Size: 4096}

	fingerprint := func(d *region.Descriptor) string {
		return fmt.Sprint(d.Home, d.Allocated, d.Attrs.ACL.Entries)
	}
	var mu sync.Mutex
	versions := make(map[uint64]string) // epoch -> fingerprint
	fresh := make(chan struct{}, 1)     // signalled when a new epoch is sighted
	sight := func(d *region.Descriptor) string {
		fp := fingerprint(d)
		mu.Lock()
		defer mu.Unlock()
		prev, ok := versions[d.Epoch]
		if ok && prev != fp {
			t.Errorf("epoch %d seen as %s and as %s", d.Epoch, prev, fp)
		}
		versions[d.Epoch] = fp
		if !ok {
			select {
			case fresh <- struct{}{}:
			default:
			}
		}
		return fp
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var quiesce sync.RWMutex
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d, err := home.GetAttr(ctx, start)
				if err != nil {
					t.Errorf("GetAttr: %v", err)
					return
				}
				fp := sight(d)
				// A freed region refuses the lock; the descriptor a granted
				// context holds is checked too.
				quiesce.RLock()
				if lc, err := home.Lock(ctx, rng, ktypes.LockRead, "admin"); err == nil {
					lfp := sight(lc.desc)
					_ = home.Unlock(ctx, lc)
					if fingerprint(lc.desc) != lfp {
						t.Errorf("descriptor changed under a lock context: %s -> %s", lfp, fingerprint(lc.desc))
					}
				}
				quiesce.RUnlock()
				if fingerprint(d) != fp {
					t.Errorf("looked-up descriptor changed in place: %s -> %s", fp, fingerprint(d))
				}
			}
		}()
	}

	// Migration wants the region quiescent, so lock holders stand aside
	// for it; descriptor lookups keep running against it.
	migrate := func(to ktypes.NodeID) {
		quiesce.Lock()
		defer quiesce.Unlock()
		if err := home.MigrateRegion(ctx, start, to, "admin"); err != nil {
			t.Fatalf("migrate to %v: %v", to, err)
		}
	}
	seen := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(versions)
	}
	for i := 0; i < 40; i++ {
		// Let the readers sight a new version per round: on a busy host the
		// mutators can otherwise finish before a reader is scheduled.
	wait:
		for seen() <= i {
			select {
			case <-fresh:
			case <-time.After(time.Second):
				break wait
			}
		}
		attrs := region.Attrs{ACL: security.Open().Grant(ktypes.Principal(fmt.Sprint("v", i)), security.PermRead)}
		if err := home.SetAttr(ctx, start, attrs, "admin"); err != nil {
			t.Fatalf("SetAttr: %v", err)
		}
		if err := home.Free(ctx, start, "admin"); err != nil {
			t.Fatalf("Free: %v", err)
		}
		if err := home.Allocate(ctx, start, "admin"); err != nil {
			t.Fatalf("Allocate: %v", err)
		}
		migrate(2)
		migrate(1)
	}
	close(stop)
	wg.Wait()
	if len(versions) < 40 {
		t.Fatalf("readers saw only %d descriptor versions", len(versions))
	}
}
