package replog

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/wire"
)

// TestReplogSteadyStateAllocGate: once a region's tail is full, every
// commit compacts one entry away. Compaction moves the retained tail down
// inside its own array, so appending a committed entry to a full tail and
// compacting allocates nothing, and a leader Append plus the follower's
// HandleAppend costs a fixed handful of objects — not a copy of the
// keepTail-entry tail on each replica, which is what it cost when
// compaction moved the tail into a fresh slice.
func TestReplogSteadyStateAllocGate(t *testing.T) {
	rl := &regionLog{state: newRegionState()}
	en := releaseEntry(0x10000, 1, 2)
	commitOne := func() {
		rl.entries = append(rl.entries, en)
		rl.advanceCommitLocked(rl.lastIndexLocked())
	}
	for i := 0; i < 2*keepTail; i++ {
		commitOne()
	}
	if allocs := testing.AllocsPerRun(500, commitOne); allocs != 0 {
		t.Fatalf("appending to a full tail and compacting allocates %.2f objects, want 0", allocs)
	}
	if len(rl.entries) != keepTail {
		t.Fatalf("retained %d entries after compaction, want %d", len(rl.entries), keepTail)
	}

	n := newNet()
	leader := n.add(1, "", 0)
	follower := n.add(2, "", 0)
	desc := testDesc(1, 2)
	ctx := context.Background()
	appendOne := func(v uint64) {
		if err := leader.Append(ctx, desc, releaseEntry(0x10000, v, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for v := uint64(1); v <= 2*keepTail; v++ {
		appendOne(v)
	}
	const cycles = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for v := uint64(1); v <= cycles; v++ {
		appendOne(2*keepTail + v)
	}
	runtime.ReadMemStats(&after)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles
	tailCopy := uint64(keepTail * unsafe.Sizeof(wire.ReplEntry{}))
	t.Logf("append+replicate cycle: %d B (%.1f objects); one tail copy is %d B",
		perCycle, float64(after.Mallocs-before.Mallocs)/cycles, tailCopy)
	if perCycle > tailCopy/2 {
		t.Fatalf("a steady-state append cycle allocates %d B, budget is half a tail copy (%d B)", perCycle, tailCopy/2)
	}
	if leader.TailLen() > keepTail || follower.TailLen() > keepTail+1 {
		t.Fatalf("tails %d/%d entries, want <= %d", leader.TailLen(), follower.TailLen(), keepTail)
	}
}

// TestRegionStateCloneOwnsItsMaps: a cloned state shares the read-only
// copyset slices but not the maps, so a caller editing what Snapshot
// returned leaves the log's state untouched.
func TestRegionStateCloneOwnsItsMaps(t *testing.T) {
	src := newRegionState()
	page, other := gaddr.New(1, 0x10000), gaddr.New(1, 0x11000)
	for _, en := range []wire.ReplEntry{releaseEntry(0x10000, 3, 2), releaseEntry(0x11000, 5, 4)} {
		src.apply(&en)
	}
	src.apply(&wire.ReplEntry{Op: wire.ReplOpHomes, Nodes: []ktypes.NodeID{1, 2, 3}, Val: 7})

	cl := src.clone()
	if &cl.Copyset[page][0] != &src.Copyset[page][0] {
		t.Fatal("clone copied a copyset; copysets are shared read-only")
	}
	cl.PageVersion[page] = 99
	cl.Owner[page] = 9
	cl.Copyset[page] = []ktypes.NodeID{9}
	delete(cl.PageVersion, other)
	delete(cl.Owner, other)
	delete(cl.Copyset, other)
	cl.Homes[0] = 9

	if v := src.PageVersion[page]; v != 3 {
		t.Fatalf("source version = %d after editing the clone, want 3", v)
	}
	if o := src.Owner[page]; o != 2 {
		t.Fatalf("source owner = %v after editing the clone, want 2", o)
	}
	if cs := src.Copyset[page]; len(cs) != 2 || cs[0] != 1 || cs[1] != 2 {
		t.Fatalf("source copyset = %v after editing the clone, want [1 2]", cs)
	}
	if _, ok := src.PageVersion[other]; !ok {
		t.Fatal("deleting from the clone deleted from the source")
	}
	if _, ok := src.Copyset[other]; !ok {
		t.Fatal("deleting a copyset from the clone deleted it from the source")
	}
	if src.Homes[0] != 1 {
		t.Fatalf("source homes = %v after editing the clone", src.Homes)
	}
}
