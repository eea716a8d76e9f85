package frame

// Chain is a small per-page version chain: the sequence of committed
// frames a home node retains so snapshot readers can pin an immutable
// version while a writer publishes newer ones. Entries are ordered by
// strictly increasing publish epoch; the newest entry is the page's
// latest committed version.
//
// Lifecycle (the multi-version frame pipeline):
//
//   - Publish appends a newly committed frame, consuming the caller's
//     reference, and retires older entries: beyond the retention cap the
//     oldest unpinned entries (refcount 1, held only by the chain) are
//     released back to the pool. A pinned entry survives past the cap
//     until its last snapshot reader unpins it.
//   - At pins the newest entry at or below a snapshot epoch, handing the
//     caller its own reference (a borrow turned obligation).
//   - Trim releases every unpinned non-latest entry, the memory-pressure
//     give-back hook; the latest version is never trimmed.
//
// A Chain is NOT internally synchronized: the owner (the page record
// holding it) serializes all calls under its page table's mutex. The
// refcount==1 reclamation test is race-free under that regime because
// every Retain of a chain entry happens inside At/Latest under the same
// owner mutex.
type Chain struct {
	entries []chainEntry
	retain  int
}

type chainEntry struct {
	//khazana:frame-owner chain holds one reference per entry, dropped on retire/reclaim
	f     *Frame
	epoch uint64
}

// DefaultChainRetain is the default number of versions a chain keeps
// before retiring unpinned old entries on publish.
const DefaultChainRetain = 4

// NewChain returns an empty chain with the default retention cap.
func NewChain() *Chain {
	return &Chain{retain: DefaultChainRetain}
}

// Publish appends f as the newest committed version at the given epoch,
// consuming the caller's reference, then retires old versions: while the
// chain exceeds its retention cap, the oldest entries held only by the
// chain are released. Entries pinned by snapshot readers survive, so the
// chain may temporarily exceed the cap. It returns the number of frames
// reclaimed. Epochs must be strictly increasing per chain.
func (c *Chain) Publish(f *Frame, epoch uint64) int {
	if n := len(c.entries); n > 0 && c.entries[n-1].epoch >= epoch {
		panic("frame: Chain.Publish epoch not increasing")
	}
	c.entries = append(c.entries, chainEntry{f: f, epoch: epoch})
	return c.reclaim(c.retain)
}

// reclaim drops oldest-first unpinned entries while more than keep
// remain, never touching the latest entry, and returns the count freed.
func (c *Chain) reclaim(keep int) int {
	if keep < 1 {
		keep = 1
	}
	freed := 0
	for len(c.entries) > keep {
		dropped := false
		for i := 0; i < len(c.entries)-1; i++ {
			if c.entries[i].f.Refs() != 1 {
				continue
			}
			c.entries[i].f.Release()
			c.entries = append(c.entries[:i], c.entries[i+1:]...)
			freed++
			dropped = true
			break
		}
		if !dropped {
			break
		}
	}
	return freed
}

// At returns the newest entry whose epoch is at or below epoch, pinned
// with a reference the caller must Release. When every retained entry is
// newer than epoch (the snapshot's version was already reclaimed), it
// falls back to the oldest retained entry — still a committed version,
// just newer than asked. The second result is the entry's epoch; ok is
// false only when the chain is empty.
func (c *Chain) At(epoch uint64) (f *Frame, at uint64, ok bool) {
	if len(c.entries) == 0 {
		return nil, 0, false
	}
	for i := len(c.entries) - 1; i >= 0; i-- {
		if c.entries[i].epoch <= epoch {
			e := c.entries[i]
			return e.f.Retain(), e.epoch, true
		}
	}
	e := c.entries[0]
	return e.f.Retain(), e.epoch, true
}

// Latest returns the newest committed version, pinned with a reference
// the caller must Release, and its epoch; ok is false when the chain is
// empty.
func (c *Chain) Latest() (f *Frame, epoch uint64, ok bool) {
	if len(c.entries) == 0 {
		return nil, 0, false
	}
	e := c.entries[len(c.entries)-1]
	return e.f.Retain(), e.epoch, true
}

// LatestVersion peeks at the page version stamped on the newest entry
// without pinning it; ok is false when the chain is empty.
func (c *Chain) LatestVersion() (v uint64, ok bool) {
	if len(c.entries) == 0 {
		return 0, false
	}
	return c.entries[len(c.entries)-1].f.Version(), true
}

// Trim releases every unpinned entry except the latest — the memory-
// pressure give-back — and returns the number of frames freed.
func (c *Chain) Trim() int {
	return c.reclaim(1)
}

// Len returns the number of retained versions.
func (c *Chain) Len() int { return len(c.entries) }

// Close releases the chain's reference on every entry, pinned or not,
// and empties the chain. Snapshot readers holding their own references
// keep their frames alive.
func (c *Chain) Close() {
	for _, e := range c.entries {
		e.f.Release()
	}
	c.entries = nil
}
