package core

import (
	"context"
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
// homed here is announced, but nothing counts as a move.
func (n *Node) ringRebalance(ctx context.Context, old, next *ring.Ring) {
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
			losers := make([]ktypes.NodeID, 0, len(oldOwners))
			for _, o := range oldOwners {
				if containsNode(newOwners, o) || o == n.cfg.ID {
					continue
				}
				losers = append(losers, o)
			}
			n.ringCast(ctx, losers, &wire.RingAnnounce{Op: wire.RingOpWithdraw, Start: desc.Range.Start, From: n.cfg.ID})
		}
		n.announceTo(ctx, newOwners, desc)
	}
}

// ringAnnounce pushes a homed descriptor to the current owners of every
// bucket its range overlaps. Called on region create, attribute/home
// change, failover promotion, and migration commit. Best effort: a
// missed owner is repaired by the fallback path's re-announce.
func (n *Node) ringAnnounce(ctx context.Context, desc *region.Descriptor) {
	if desc == nil {
		return
	}
	r := n.Ring()
	if r == nil {
		return
	}
	n.announceTo(ctx, r.RangeOwners(desc.Range), desc)
}

// announceTo delivers one descriptor to an owner set, short-circuiting
// the self-owned share straight into the local table. Remote owners are
// notified off the caller's critical path: client operations (Reserve,
// SetAttr, migration) never pay owner round trips.
func (n *Node) announceTo(ctx context.Context, owners []ktypes.NodeID, desc *region.Descriptor) {
	remote := make([]ktypes.NodeID, 0, len(owners))
	for _, o := range owners {
		if o == n.cfg.ID {
			n.ringTable.Insert(desc)
			continue
		}
		remote = append(remote, o)
	}
	n.ringCast(ctx, remote, &wire.RingAnnounce{Op: wire.RingOpPut, Desc: desc, Start: desc.Range.Start, From: n.cfg.ID})
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

// ringDestroy tells a destroyed region's bucket owners to forget it. Like
// every announce it is asynchronous: the caller's own state is already
// purged (forgetRegion), and an owner the cast has not reached yet hands
// out a descriptor whose home answers no-such-region.
func (n *Node) ringDestroy(ctx context.Context, desc *region.Descriptor) {
	r := n.Ring()
	if r == nil {
		return
	}
	owners := r.RangeOwners(desc.Range)
	remote := make([]ktypes.NodeID, 0, len(owners))
	for _, o := range owners {
		if o != n.cfg.ID {
			remote = append(remote, o)
		}
	}
	n.ringCast(ctx, remote, &wire.RingAnnounce{Op: wire.RingOpDestroy, Start: desc.Range.Start, From: n.cfg.ID})
}

// ringCast delivers one announce frame to a set of peers asynchronously.
// Announces are best effort by design — a missed owner is repaired when
// the fallback path re-announces — so nothing on a client operation's
// critical path waits for them. RingSettle drains in-flight casts.
func (n *Node) ringCast(ctx context.Context, peers []ktypes.NodeID, msg *wire.RingAnnounce) {
	if len(peers) == 0 {
		return
	}
	// Detach from the caller's cancellation: the announce should land
	// even if the client that triggered it gives up.
	base := context.WithoutCancel(ctx)
	n.annWG.Add(1)
	go func() {
		defer n.annWG.Done()
		castCtx, cancel := context.WithTimeout(base, 2*time.Second)
		defer cancel()
		for _, o := range peers {
			//khazana:ignore-err best-effort announce; an unreachable owner is repaired when the fallback path re-announces
			_, _ = n.tr.Request(castCtx, o, msg)
		}
	}()
}

// RingSettle blocks until all in-flight ring announces have drained.
// Announces are asynchronous (client operations never pay owner round
// trips), so tests and experiments that want a converged partition call
// this before asserting on lookup behavior.
func (n *Node) RingSettle() {
	n.annWG.Wait()
}

// lookupViaRing resolves a cold lookup through the descriptor
// partition: hash the address to its bucket, ask each owner (self
// served locally) for the containing descriptor. One RPC hop on the
// common path; nil when no owner can answer (the caller falls back and
// repairs).
func (n *Node) lookupViaRing(ctx context.Context, addr gaddr.Addr) *region.Descriptor {
	r := n.Ring()
	if r == nil {
		return nil
	}
	for _, o := range r.Owners(ring.BucketOf(addr)) {
		if o == n.cfg.ID {
			if d, ok := n.ringTable.Lookup(addr); ok {
				return d
			}
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
// announces cannot roll a home change back.
func (n *Node) handleRingAnnounce(msg *wire.RingAnnounce) *wire.Ack {
	switch msg.Op {
	case wire.RingOpPut:
		n.ringTable.Insert(msg.Desc)
	case wire.RingOpWithdraw:
		n.ringTable.Remove(msg.Start)
	case wire.RingOpDestroy:
		n.forgetRegion(msg.Start)
	}
	return &wire.Ack{}
}

// sameOwnerSet reports whether two owner lists contain the same nodes
// (order-insensitive; lists are small and duplicate-free).
func sameOwnerSet(a, b []ktypes.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		if !containsNode(b, x) {
			return false
		}
	}
	return true
}
