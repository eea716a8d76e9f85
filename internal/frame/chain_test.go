package frame

import (
	"bytes"
	"sync"
	"testing"
)

func publishN(t *testing.T, c *Chain, n int, size int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f := Alloc(size)
		for j := range f.Bytes() {
			f.Bytes()[j] = byte(i + 1)
		}
		f.SetVersion(uint64(i + 1))
		c.Publish(f, uint64(i+1))
	}
}

func TestChainPublishAndLatest(t *testing.T) {
	c := NewChain()
	defer c.Close()
	if _, _, ok := c.Latest(); ok {
		t.Fatal("Latest on empty chain reported ok")
	}
	if _, ok := c.LatestVersion(); ok {
		t.Fatal("LatestVersion on empty chain reported ok")
	}
	publishN(t, c, 3, 64)
	f, epoch, ok := c.Latest()
	if !ok || epoch != 3 {
		t.Fatalf("Latest = epoch %d ok=%v, want 3 true", epoch, ok)
	}
	if f.Bytes()[0] != 3 {
		t.Fatalf("Latest bytes = %d, want 3", f.Bytes()[0])
	}
	f.Release()
	if v, ok := c.LatestVersion(); !ok || v != 3 {
		t.Fatalf("LatestVersion = %d ok=%v, want 3 true", v, ok)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

func TestChainAtSnapshotEpochs(t *testing.T) {
	c := NewChain()
	defer c.Close()
	publishN(t, c, 4, 64)
	// Exact epoch.
	f, at, ok := c.At(2)
	if !ok || at != 2 || f.Bytes()[0] != 2 {
		t.Fatalf("At(2) = epoch %d byte %d ok=%v", at, f.Bytes()[0], ok)
	}
	f.Release()
	// Epoch between entries pins the newest at-or-below.
	c2 := NewChain()
	defer c2.Close()
	fa := Copy(bytes.Repeat([]byte{9}, 32))
	c2.Publish(fa, 10)
	fb := Copy(bytes.Repeat([]byte{7}, 32))
	c2.Publish(fb, 20)
	f, at, ok = c2.At(15)
	if !ok || at != 10 || f.Bytes()[0] != 9 {
		t.Fatalf("At(15) = epoch %d byte %d ok=%v, want 10/9/true", at, f.Bytes()[0], ok)
	}
	f.Release()
	// Epoch older than every retained entry falls back to the oldest.
	f, at, ok = c2.At(1)
	if !ok || at != 10 {
		t.Fatalf("At(1) fallback = epoch %d ok=%v, want 10 true", at, ok)
	}
	f.Release()
	// Future epoch pins the latest.
	f, at, ok = c2.At(99)
	if !ok || at != 20 {
		t.Fatalf("At(99) = epoch %d ok=%v, want 20 true", at, ok)
	}
	f.Release()
}

func TestChainReclaimOnPublish(t *testing.T) {
	c := NewChain()
	defer c.Close()
	// DefaultChainRetain versions fit without reclamation.
	publishN(t, c, DefaultChainRetain, 64)
	if c.Len() != DefaultChainRetain {
		t.Fatalf("Len = %d, want %d", c.Len(), DefaultChainRetain)
	}
	// The next publish retires the oldest unpinned entry.
	f := AllocZero(64)
	f.SetVersion(uint64(DefaultChainRetain + 1))
	if freed := c.Publish(f, uint64(DefaultChainRetain+1)); freed != 1 {
		t.Fatalf("Publish freed %d, want 1", freed)
	}
	if c.Len() != DefaultChainRetain {
		t.Fatalf("Len after reclaim = %d, want %d", c.Len(), DefaultChainRetain)
	}
	// The oldest retained epoch is now 2.
	g, at, ok := c.At(1)
	if !ok || at != 2 {
		t.Fatalf("oldest retained epoch = %d ok=%v, want 2 true", at, ok)
	}
	g.Release()
}

func TestChainPinnedEntriesSurviveReclaim(t *testing.T) {
	c := NewChain()
	defer c.Close()
	publishN(t, c, DefaultChainRetain, 64)
	// Pin every retained version, then publish past the cap: nothing is
	// reclaimable, so the chain must grow rather than recycle a pinned
	// frame.
	var pins []*Frame
	for i := 1; i <= DefaultChainRetain; i++ {
		f, at, ok := c.At(uint64(i))
		if !ok || at != uint64(i) {
			t.Fatalf("At(%d) = epoch %d ok=%v", i, at, ok)
		}
		pins = append(pins, f)
	}
	for i := DefaultChainRetain + 1; i <= DefaultChainRetain+4; i++ {
		f := AllocZero(64)
		f.SetVersion(uint64(i))
		c.Publish(f, uint64(i))
	}
	// The unpinned intermediate versions retire, but every pinned entry
	// plus the latest survive, so the chain sits one over its cap.
	if c.Len() != DefaultChainRetain+1 {
		t.Fatalf("Len = %d, want %d while old entries are pinned", c.Len(), DefaultChainRetain+1)
	}
	// Pinned versions still serve their exact epochs and bytes.
	g, at, ok := c.At(1)
	if !ok || at != 1 || g.Bytes()[0] != 1 {
		t.Fatalf("pinned entry gone: At(1) = epoch %d ok=%v", at, ok)
	}
	g.Release()
	for _, f := range pins {
		f.Release()
	}
	// With the pins gone the next publish retires the backlog.
	f := AllocZero(64)
	c.Publish(f, uint64(2*DefaultChainRetain+1))
	if c.Len() != DefaultChainRetain {
		t.Fatalf("Len after unpin = %d, want %d", c.Len(), DefaultChainRetain)
	}
}

func TestChainTrim(t *testing.T) {
	c := NewChain()
	defer c.Close()
	publishN(t, c, 4, 64)
	pinned, _, _ := c.At(2)
	freed := c.Trim()
	// Entries 1 and 3 are unpinned and non-latest; entry 2 is pinned and
	// entry 4 is latest.
	if freed != 2 {
		t.Fatalf("Trim freed %d, want 2", freed)
	}
	if c.Len() != 2 {
		t.Fatalf("Len after Trim = %d, want 2", c.Len())
	}
	if _, _, ok := c.Latest(); !ok {
		t.Fatal("latest entry trimmed")
	} else {
		f, at, _ := c.Latest()
		if at != 4 {
			t.Fatalf("latest epoch after Trim = %d, want 4", at)
		}
		f.Release()
	}
	pinned.Release()
	if freed := c.Trim(); freed != 1 {
		t.Fatalf("second Trim freed %d, want 1", freed)
	}
	if c.Len() != 1 {
		t.Fatalf("Len after full Trim = %d, want 1", c.Len())
	}
}

func TestChainPublishEpochMustIncrease(t *testing.T) {
	c := NewChain()
	defer c.Close()
	c.Publish(AllocZero(32), 5)
	defer func() {
		if recover() == nil {
			t.Fatal("Publish with non-increasing epoch did not panic")
		}
	}()
	c.Publish(AllocZero(32), 5)
}

// TestChainConcurrentReadersVsPublisher drives the chain the way the
// CREW home does — all chain calls serialized by an owner mutex — while
// snapshot readers pin old versions and verify their bytes as a writer
// publishes new ones. Run under -race this proves pinned frames are
// never recycled underneath a reader.
func TestChainConcurrentReadersVsPublisher(t *testing.T) {
	c := NewChain()
	var mu sync.Mutex // the owner mutex (the page table's mutex in production)

	const versions = 200
	const readers = 8

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= versions; i++ {
			f := Alloc(128)
			for j := range f.Bytes() {
				f.Bytes()[j] = byte(i)
			}
			f.SetVersion(uint64(i))
			mu.Lock()
			c.Publish(f, uint64(i))
			mu.Unlock()
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				mu.Lock()
				f, at, ok := c.At(uint64(i%versions + 1))
				mu.Unlock()
				if !ok {
					continue
				}
				b := f.Bytes()
				want := byte(at)
				for _, got := range b {
					if got != want {
						t.Errorf("pinned frame at epoch %d mutated: got %d want %d", at, got, want)
						break
					}
				}
				f.Release()
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	c.Close()
	mu.Unlock()
}
