package consistency

import (
	"context"
	"sync"
	"testing"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
)

func lpage(n uint64) gaddr.Addr { return gaddr.FromUint64(n * 0x1000) }

func TestLockModeCompatibility(t *testing.T) {
	tests := []struct {
		name   string
		first  ktypes.LockMode
		second ktypes.LockMode
		admit  bool
	}{
		{"read read", ktypes.LockRead, ktypes.LockRead, true},
		{"read write", ktypes.LockRead, ktypes.LockWrite, false},
		{"read write-shared", ktypes.LockRead, ktypes.LockWriteShared, true},
		{"write read", ktypes.LockWrite, ktypes.LockRead, false},
		{"write write", ktypes.LockWrite, ktypes.LockWrite, false},
		{"write write-shared", ktypes.LockWrite, ktypes.LockWriteShared, false},
		{"write-shared read", ktypes.LockWriteShared, ktypes.LockRead, true},
		{"write-shared write", ktypes.LockWriteShared, ktypes.LockWrite, false},
		{"write-shared write-shared", ktypes.LockWriteShared, ktypes.LockWriteShared, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			lt := NewLockTable()
			if err := lt.Acquire(context.Background(), lpage(1), tt.first); err != nil {
				t.Fatal(err)
			}
			if got := lt.TryAcquire(lpage(1), tt.second); got != tt.admit {
				t.Fatalf("TryAcquire(%v after %v) = %v, want %v", tt.second, tt.first, got, tt.admit)
			}
		})
	}
}

func TestLockDifferentPagesIndependent(t *testing.T) {
	lt := NewLockTable()
	ctx := context.Background()
	if err := lt.Acquire(ctx, lpage(1), ktypes.LockWrite); err != nil {
		t.Fatal(err)
	}
	if err := lt.Acquire(ctx, lpage(2), ktypes.LockWrite); err != nil {
		t.Fatal(err)
	}
}

func TestLockBlocksUntilRelease(t *testing.T) {
	lt := NewLockTable()
	ctx := context.Background()
	if err := lt.Acquire(ctx, lpage(1), ktypes.LockWrite); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		if err := lt.Acquire(ctx, lpage(1), ktypes.LockRead); err == nil {
			close(acquired)
		}
	}()
	select {
	case <-acquired:
		t.Fatal("read acquired while write held")
	case <-time.After(30 * time.Millisecond):
	}
	lt.Release(lpage(1), ktypes.LockWrite)
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("read never acquired after release")
	}
}

func TestLockWriteWaitsForAllReaders(t *testing.T) {
	lt := NewLockTable()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := lt.Acquire(ctx, lpage(1), ktypes.LockRead); err != nil {
			t.Fatal(err)
		}
	}
	acquired := make(chan struct{})
	go func() {
		if err := lt.Acquire(ctx, lpage(1), ktypes.LockWrite); err == nil {
			close(acquired)
		}
	}()
	for i := 0; i < 3; i++ {
		select {
		case <-acquired:
			t.Fatalf("write acquired with %d readers left", 3-i)
		case <-time.After(10 * time.Millisecond):
		}
		lt.Release(lpage(1), ktypes.LockRead)
	}
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("write never acquired")
	}
}

func TestLockContextCancel(t *testing.T) {
	lt := NewLockTable()
	if err := lt.Acquire(context.Background(), lpage(1), ktypes.LockWrite); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := lt.Acquire(ctx, lpage(1), ktypes.LockRead); err == nil {
		t.Fatal("acquire should fail on context timeout")
	}
	// Table must stay consistent: release the writer, lock again.
	lt.Release(lpage(1), ktypes.LockWrite)
	if err := lt.Acquire(context.Background(), lpage(1), ktypes.LockWrite); err != nil {
		t.Fatal(err)
	}
}

func TestLockReleasePanics(t *testing.T) {
	tests := []struct {
		name string
		prep func(lt *LockTable)
		rel  ktypes.LockMode
	}{
		{"never locked", func(*LockTable) {}, ktypes.LockRead},
		{"wrong mode read", func(lt *LockTable) {
			_ = lt.Acquire(context.Background(), lpage(1), ktypes.LockRead)
		}, ktypes.LockWrite},
		{"wrong mode write", func(lt *LockTable) {
			_ = lt.Acquire(context.Background(), lpage(1), ktypes.LockWrite)
		}, ktypes.LockWriteShared},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			lt := NewLockTable()
			tt.prep(lt)
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			lt.Release(lpage(1), tt.rel)
		})
	}
}

func TestLockTableCleanup(t *testing.T) {
	lt := NewLockTable()
	ctx := context.Background()
	_ = lt.Acquire(ctx, lpage(1), ktypes.LockRead)
	_ = lt.Acquire(ctx, lpage(1), ktypes.LockRead)
	if !lt.Held(lpage(1)) || lt.Len() != 1 {
		t.Fatal("lock not tracked")
	}
	lt.Release(lpage(1), ktypes.LockRead)
	if !lt.Held(lpage(1)) {
		t.Fatal("lock dropped with a reader left")
	}
	lt.Release(lpage(1), ktypes.LockRead)
	if lt.Held(lpage(1)) || lt.Len() != 0 {
		t.Fatal("empty lock entry not cleaned up")
	}
}

func TestLockStress(t *testing.T) {
	lt := NewLockTable()
	ctx := context.Background()
	var counter int
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if err := lt.Acquire(ctx, lpage(1), ktypes.LockWrite); err != nil {
					t.Error(err)
					return
				}
				counter++
				lt.Release(lpage(1), ktypes.LockWrite)
			}
		}()
	}
	wg.Wait()
	if counter != 8*200 {
		t.Fatalf("counter = %d, want %d (write lock not exclusive)", counter, 8*200)
	}
}

// An invalid mode never leaves an entry behind: a holderless entry would
// read as locked forever and wedge MigrateRegion's quiescence check.
func TestLockInvalidMode(t *testing.T) {
	lt := NewLockTable()
	for _, mode := range []ktypes.LockMode{0, 99} {
		if lt.TryAcquire(lpage(1), mode) {
			t.Fatalf("mode %d admitted", mode)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := lt.Acquire(ctx, lpage(1), mode)
		waited := ctx.Err() != nil
		cancel()
		if err == nil || waited {
			t.Fatalf("Acquire(mode %d) = %v, want an immediate error", mode, err)
		}
		if lt.Held(lpage(1)) || lt.Len() != 0 {
			t.Fatalf("refused mode %d left an entry: held=%v len=%d", mode, lt.Held(lpage(1)), lt.Len())
		}
	}
	// A conflicting TryAcquire is refused without touching the holder's entry.
	if !lt.TryAcquire(lpage(1), ktypes.LockWrite) || lt.TryAcquire(lpage(1), ktypes.LockRead) {
		t.Fatal("write then read: want admitted then refused")
	}
	lt.Release(lpage(1), ktypes.LockWrite)
	if lt.Len() != 0 {
		t.Fatalf("len = %d after the only holder released", lt.Len())
	}
}

func TestLockTryReleaseUnheld(t *testing.T) {
	lt := NewLockTable()
	if lt.TryRelease(lpage(1), ktypes.LockRead) {
		t.Fatal("TryRelease of a never-locked page reported held")
	}
	_ = lt.Acquire(context.Background(), lpage(1), ktypes.LockRead)
	if lt.TryRelease(lpage(1), ktypes.LockWrite) || lt.TryRelease(lpage(1), 0) {
		t.Fatal("TryRelease in a mode not held reported held")
	}
	if !lt.TryRelease(lpage(1), ktypes.LockRead) || lt.Len() != 0 {
		t.Fatal("TryRelease of the held read lock failed or left an entry")
	}
}

// waitParked blocks until want goroutines are parked on page's gate.
func waitParked(t *testing.T, lt *LockTable, page gaddr.Addr, want int32) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		lt.mu.Lock()
		got := lt.pages[page].waiters
		lt.mu.Unlock()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters parked, want %d", got, want)
		}
	}
}

// N waiters behind one exclusive holder all wake on its release, exactly
// one wins each round, and the table is empty once everyone is done.
func TestLockWaitersAllWakeOneWins(t *testing.T) {
	const waiters = 8
	lt := NewLockTable()
	ctx := context.Background()
	if err := lt.Acquire(ctx, lpage(1), ktypes.LockWrite); err != nil {
		t.Fatal(err)
	}
	var holders, wins int // guarded by the page's write lock
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := lt.Acquire(ctx, lpage(1), ktypes.LockWrite); err != nil {
				t.Error(err)
				return
			}
			if holders++; holders != 1 {
				t.Errorf("%d exclusive holders at once", holders)
			}
			wins++
			holders--
			lt.Release(lpage(1), ktypes.LockWrite)
		}()
	}
	waitParked(t, lt, lpage(1), waiters)
	lt.Release(lpage(1), ktypes.LockWrite)
	wg.Wait()
	if wins != waiters {
		t.Fatalf("%d of %d waiters ever won", wins, waiters)
	}
	if lt.Len() != 0 {
		t.Fatalf("len = %d after every holder released", lt.Len())
	}
}

// A waiter whose ctx expires leaves the table as it found it: the
// holder's entry, no gate, no waiter count.
func TestLockWaiterExpiryLeavesNoGate(t *testing.T) {
	lt := NewLockTable()
	if err := lt.Acquire(context.Background(), lpage(1), ktypes.LockWrite); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- lt.Acquire(ctx, lpage(1), ktypes.LockRead) }()
	waitParked(t, lt, lpage(1), 1)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled Acquire succeeded")
	}
	lt.mu.Lock()
	pl := lt.pages[lpage(1)]
	lt.mu.Unlock()
	if lt.Len() != 1 || pl.gate != nil || pl.waiters != 0 || !pl.exclusive {
		t.Fatalf("after expiry: len=%d entry=%+v, want the holder's entry alone", lt.Len(), pl)
	}
	lt.Release(lpage(1), ktypes.LockWrite)
	if lt.Len() != 0 {
		t.Fatalf("len = %d after release", lt.Len())
	}
}

// Writer → readers → writer hand-off never admits a reader beside a
// writer: the counters below are only touched while holding the page lock.
func TestLockReaderWriterHandoff(t *testing.T) {
	lt := NewLockTable()
	ctx := context.Background()
	var mu sync.Mutex // guards the counters; the page lock guards the invariant
	var readers, writers int
	enter := func(mode ktypes.LockMode) {
		mu.Lock()
		defer mu.Unlock()
		if mode == ktypes.LockWrite {
			writers++
		} else {
			readers++
		}
		if writers > 1 || (writers == 1 && readers > 0) {
			t.Errorf("%d writers beside %d readers", writers, readers)
		}
	}
	leave := func(mode ktypes.LockMode) {
		mu.Lock()
		defer mu.Unlock()
		if mode == ktypes.LockWrite {
			writers--
		} else {
			readers--
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		mode := ktypes.LockRead
		if i%3 == 0 {
			mode = ktypes.LockWrite
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if err := lt.Acquire(ctx, lpage(1), mode); err != nil {
					t.Error(err)
					return
				}
				enter(mode)
				leave(mode)
				lt.Release(lpage(1), mode)
			}
		}()
	}
	wg.Wait()
	if lt.Len() != 0 {
		t.Fatalf("len = %d after every holder released", lt.Len())
	}
}

// TestLockUncontendedNoAlloc: entries live in the map by value and the
// gate exists only while someone waits, so a warmed table grants and
// releases an uncontended lock without allocating.
func TestLockUncontendedNoAlloc(t *testing.T) {
	lt := NewLockTable()
	cycle := func() {
		if !lt.TryAcquire(lpage(1), ktypes.LockRead) || !lt.TryRelease(lpage(1), ktypes.LockRead) {
			t.Fatal("uncontended cycle refused")
		}
	}
	cycle() // warm the map
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("uncontended TryAcquire+TryRelease allocates %.2f objects, want 0", avg)
	}
}
