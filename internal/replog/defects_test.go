//go:build defects

package replog

// Known defects of this package, each written as a test of the correct
// behaviour, so each fails until its fix lands. Tier-1 does not build the
// tag; `make defects` runs these tests. A fix deletes the build tag from
// its test, which moves the test into tier-1.

import (
	"context"
	"errors"
	"testing"
)

// TestReturningPrimaryStaysDeposed: a two-home region's survivor seizes
// the lead at a new term while its primary is down. The returning primary
// still lists itself first; its next append is refused and moves it to the
// survivor's term. Every later append must be refused too, and the
// survivor must keep the lead. Today birthright checks only votedFor, not
// votedTerm, so the returning primary retakes the lead at the survivor's
// own term and the survivor follows it.
func TestReturningPrimaryStaysDeposed(t *testing.T) {
	n := newNet()
	primary, survivor := n.add(1, "", 0), n.add(2, "", 0)
	desc := testDesc(1, 2)
	ctx := context.Background()
	if err := primary.Append(ctx, desc, releaseEntry(0x10000, 1, 1)); err != nil {
		t.Fatal(err)
	}
	primary.Settle()

	n.crash(1)
	survivor.Seize(desc.Range.Start)
	seized := testDesc(2, 1)
	seized.Range = desc.Range
	if err := survivor.Append(ctx, seized, releaseEntry(0x10000, 2, 2)); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.down[1] = false
	n.mu.Unlock()

	for i := uint64(3); i <= 4; i++ {
		if err := primary.Append(ctx, desc, releaseEntry(0x10000, i, 1)); !errors.Is(err, ErrNotLeader) {
			t.Fatalf("returning primary's append %d = %v, want ErrNotLeader", i-2, err)
		}
	}
	if leader, _ := survivor.Leader(desc.Range.Start); leader != 2 {
		t.Fatalf("survivor follows leader %v, want itself (2)", leader)
	}
}
