package core

import (
	"context"
	"slices"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/ring"
	"khazana/internal/wire"
)

// Consistent-hashing descriptor partition (the ROADMAP's decentralized
// location item). Every node derives the same ring from the membership
// view, so the owners of any address are computable locally: a cold
// lookup asks a bucket owner for the descriptor and resolves in one RPC
// hop instead of the §3.1 tree walk. Homes announce descriptor changes
// (create, destroy, home change, failover) to the owners of every
// bucket the region overlaps; on membership change each home
// re-announces only the descriptors whose owner set actually moved.

// ringSync rebuilds the ring if the membership view changed, then
// re-announces homed descriptors whose owner set moved. Cheap when
// nothing changed (one sorted-set comparison), so every membership
// signal — join, heartbeat view, leave — funnels through it.
func (n *Node) ringSync(ctx context.Context) {
	members := n.Members()
	n.ringMu.Lock()
	if n.ringState.SameMembers(members) {
		n.ringMu.Unlock()
		return
	}
	old := n.ringState
	next := ring.Build(members, ring.Options{})
	n.ringState = next
	n.ringMu.Unlock()
	n.ringRebalance(ctx, old, next)
}

// ringRebalance re-announces this node's homed descriptors after a ring
// change. Only descriptors whose owner set differs between the old and
// new ring move; the rest stay put (the consistent-hashing property
// that keeps churn cheap). old == nil is the initial sync: everything
// homed here is announced, but nothing counts as a move. The announces
// are grouped by peer, so a stalled owner costs one bound however many
// descriptors it owns, and the others still get theirs.
func (n *Node) ringRebalance(ctx context.Context, old, next *ring.Ring) {
	byPeer := make(map[ktypes.NodeID][]*wire.RingAnnounce)
	for _, desc := range n.homedDescs() {
		newOwners := next.RangeOwners(desc.Range)
		if old != nil {
			oldOwners := old.RangeOwners(desc.Range)
			if sameOwnerSet(oldOwners, newOwners) {
				continue
			}
			n.mRingMoves.Add(1)
			// Withdraw from owners that lost the partition so their
			// tables do not serve ever-staler descriptors.
			for _, o := range oldOwners {
				if !slices.Contains(newOwners, o) && o != n.cfg.ID {
					byPeer[o] = append(byPeer[o], &wire.RingAnnounce{Op: wire.RingOpWithdraw, Start: desc.Range.Start, From: n.cfg.ID})
				}
			}
		}
		put := &wire.RingAnnounce{Op: wire.RingOpPut, Desc: desc, Start: desc.Range.Start, From: n.cfg.ID}
		for _, o := range n.remoteOwners(newOwners, desc) {
			byPeer[o] = append(byPeer[o], put)
		}
	}
	for o, msgs := range byPeer {
		n.ringCast(ctx, []ktypes.NodeID{o}, msgs...)
	}
}

// ringAnnounce pushes a homed descriptor to the current owners of every
// bucket its range overlaps. Called on region create, attribute/home
// change, failover promotion, and migration commit. Best effort: a
// missed owner is repaired by the fallback path's re-announce. Before
// the first membership view the ring is nil and owns nothing.
func (n *Node) ringAnnounce(ctx context.Context, desc *region.Descriptor) {
	n.ringCast(ctx, n.remoteOwners(n.Ring().RangeOwners(desc.Range), desc),
		&wire.RingAnnounce{Op: wire.RingOpPut, Desc: desc, Start: desc.Range.Start, From: n.cfg.ID})
}

// remoteOwners returns the owners other than this node; when this node
// is one, desc (nil for a destroy) goes straight into its own table.
func (n *Node) remoteOwners(owners []ktypes.NodeID, desc *region.Descriptor) []ktypes.NodeID {
	remote := make([]ktypes.NodeID, 0, len(owners))
	for _, o := range owners {
		if o != n.cfg.ID {
			remote = append(remote, o)
		} else if desc != nil {
			n.ringTable.Insert(desc)
		}
	}
	return remote
}

// forgetRegion purges every cached trace of a region this node knows to
// be destroyed: the directory entry, and the ring-table entry together
// with a tombstone, so neither a late announce nor another owner's
// not-yet-withdrawn copy can re-teach it (see Unreserve's invariant).
func (n *Node) forgetRegion(start gaddr.Addr) {
	n.rdir.Remove(start)
	n.ringTable.Destroy(start)
	// A copy pinned by a live lock context stays in RAM for its holder,
	// whose Unlock drops it (LockContext.tab).
	if tab := n.dir.Drop(start); tab != nil {
		n.clearTable(tab, n.store.Discard)
	}
}

// ringDestroy tells a destroyed region's bucket owners to forget it,
// except those in told: a sharer sent the teardown InvalidateBatch has
// forgotten it already, so no node gets two teardown messages (nor waits
// out two bounds when stalled). The caller's own state is already purged
// (forgetRegion).
func (n *Node) ringDestroy(ctx context.Context, desc *region.Descriptor, told []ktypes.NodeID) {
	remote := slices.DeleteFunc(n.remoteOwners(n.Ring().RangeOwners(desc.Range), nil), func(o ktypes.NodeID) bool {
		return slices.Contains(told, o)
	})
	n.ringCast(ctx, remote, &wire.RingAnnounce{Op: wire.RingOpDestroy, Start: desc.Range.Start, From: n.cfg.ID})
}

// ringCastTimeout bounds what one stalled peer costs an announce's caller.
const ringCastTimeout = 2 * time.Second

// ringCast delivers announces to peers on the caller's goroutine, each
// peer's in order. RingAnnounce is one-way (wire.OneWay): over inproc the
// owner has applied it when this returns, over TCP the frame is written.
// The bound is detached from the caller's cancellation, so an announce
// lands even if the client that triggered it gives up, and renewed once
// spent, so a stalled peer costs one bound and the peers after it still
// get theirs. A peer's first failure drops its remaining announces: a
// missed owner is repaired when the fallback path re-announces.
func (n *Node) ringCast(ctx context.Context, peers []ktypes.NodeID, msgs ...*wire.RingAnnounce) {
	if len(peers) == 0 {
		return
	}
	base := context.WithoutCancel(ctx)
	castCtx, cancel := context.WithTimeout(base, ringCastTimeout)
	for _, o := range peers {
		if castCtx.Err() != nil {
			cancel()
			castCtx, cancel = context.WithTimeout(base, ringCastTimeout)
		}
		for _, m := range msgs {
			if _, err := n.tr.Request(castCtx, o, m); err != nil {
				break
			}
		}
	}
	cancel()
}

// RingSettle returns at once. Announces are delivered before the call
// that made them returns (ringCast), so there is nothing left to drain;
// it remains because the benchmark harness calls it.
func (n *Node) RingSettle() {}

// lookupViaRing resolves a cold lookup through the descriptor
// partition: hash the address to its bucket and, when this node owns it,
// answer from the own table; otherwise ask each remote owner for the
// containing descriptor. At most one RPC hop on the common path; nil
// when no owner can answer (the caller falls back and repairs).
func (n *Node) lookupViaRing(ctx context.Context, addr gaddr.Addr) *region.Descriptor {
	owners := n.Ring().Owners(ring.BucketOf(addr))
	if slices.Contains(owners, n.cfg.ID) {
		if d, ok := n.ringTable.Lookup(addr); ok {
			return d
		}
	}
	for _, o := range owners {
		if o == n.cfg.ID {
			continue
		}
		resp, err := n.tr.Request(ctx, o, &wire.RingLookup{Addr: addr, From: n.cfg.ID})
		if err != nil {
			continue
		}
		reply, ok := resp.(*wire.RingReply)
		if !ok || !reply.Found || reply.Desc == nil {
			continue
		}
		// Trust but verify: an owner mid-rebalance can hold a table
		// whose entry no longer contains the address, and one the destroy
		// cast has not reached yet still lists a region this node knows
		// is gone.
		if !reply.Desc.Range.Contains(addr) || n.ringTable.Destroyed(reply.Desc.Range.Start) {
			continue
		}
		return reply.Desc
	}
	return nil
}

// handleRingLookup serves a peer's one-hop cold lookup from this node's
// authoritative state only — regions homed here and the ring table —
// never the region-directory cache, whose entries may be stale (a ring
// answer is trusted as current by the caller).
func (n *Node) handleRingLookup(msg *wire.RingLookup) *wire.RingReply {
	if n.mapDesc.Range.Contains(msg.Addr) {
		return &wire.RingReply{Found: true, Desc: n.mapDesc}
	}
	if d := n.authDesc(msg.Addr); d != nil {
		return &wire.RingReply{Found: true, Desc: d}
	}
	if d, ok := n.ringTable.Lookup(msg.Addr); ok {
		return &wire.RingReply{Found: true, Desc: d}
	}
	return &wire.RingReply{Found: false}
}

// handleRingAnnounce applies a descriptor announce to the local ring
// table. Inserts prefer the higher epoch, so replayed or reordered
// announces cannot roll a home change back. The announce is one-way: its
// sender reads no reply.
func (n *Node) handleRingAnnounce(msg *wire.RingAnnounce) {
	switch msg.Op {
	case wire.RingOpPut:
		n.ringTable.Insert(msg.Desc)
	case wire.RingOpWithdraw:
		n.ringTable.Remove(msg.Start)
	case wire.RingOpDestroy:
		n.forgetRegion(msg.Start)
	}
}

// sameOwnerSet reports whether two owner lists contain the same nodes
// (order-insensitive; lists are small and duplicate-free).
func sameOwnerSet(a, b []ktypes.NodeID) bool {
	return len(a) == len(b) && !slices.ContainsFunc(a, func(x ktypes.NodeID) bool { return !slices.Contains(b, x) })
}
