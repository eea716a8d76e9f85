package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/pagedir"
	"khazana/internal/region"
	"khazana/internal/replog"
	"khazana/internal/ring"
	"khazana/internal/wire"
)

// ErrInaccessible is returned when every stage of the lookup path fails:
// "If the region descriptor cannot be located, the region is deemed
// inaccessible and the operation fails back to the client" (§3.2).
var ErrInaccessible = errors.New("core: region inaccessible")

// lookupRegion resolves the descriptor of the region containing addr.
// Every lookup takes one path: the well-known map region and regions
// homed here, then the region directory cache (§3.2), then on a miss one
// cold flight — the consistent-hashing ring, which hashes the address to
// its bucket owners and resolves in one RPC hop, and behind it the
// address map tree walk as the only repair stage. The ring stands where
// the paper's cluster-manager hint stood (§3.2).
func (n *Node) lookupRegion(ctx context.Context, addr gaddr.Addr) (*region.Descriptor, error) {
	n.stats.Lookups.Add(1)
	// Stage 0: the address map region itself is well known.
	if n.mapDesc.Range.Contains(addr) {
		return n.mapDesc, nil
	}
	// Stage 0b: regions homed here are authoritative.
	if d := n.authDesc(addr); d != nil {
		return d, nil
	}
	// Stage 1: region directory cache.
	stageStart := time.Now()
	if d, ok := n.rdir.Lookup(addr); ok {
		n.stats.DirHits.Add(1)
		n.mStageDir.ObserveSince(stageStart)
		n.trace("1:region-directory-hit")
		return d, nil
	}
	return n.lookupCold(ctx, addr)
}

// lookupCold resolves a directory miss, collapsing concurrent misses
// for the same hash bucket into one flight: the first caller does the
// remote lookup, waiters block on its completion and re-check the
// directory. A waiter whose address the leader's result did not cover
// (different region, same bucket) loops and becomes the next leader.
func (n *Node) lookupCold(ctx context.Context, addr gaddr.Addr) (*region.Descriptor, error) {
	key := ring.BucketOf(addr)
	for {
		n.flightMu.Lock()
		ch, inflight := n.flights[key]
		if !inflight {
			ch = make(chan struct{})
			n.flights[key] = ch
			n.flightMu.Unlock()
			// A flight may have landed between the caller's directory
			// miss and this registration; only a second miss flies.
			d, ok := n.rdir.Lookup(addr)
			var err error
			if ok {
				n.stats.DirHits.Add(1)
			} else {
				d, err = n.coldFlight(ctx, addr)
			}
			n.flightMu.Lock()
			delete(n.flights, key)
			n.flightMu.Unlock()
			close(ch)
			return d, err
		}
		n.flightMu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if d, ok := n.rdir.Lookup(addr); ok {
			n.stats.DirHits.Add(1)
			return d, nil
		}
	}
}

// coldFlight is the single in-flight cold lookup for a bucket: the ring
// first (one RPC hop), then the address map tree walk when no owner can
// answer — owners unreachable, or their tables missing the region. A
// steady-state lookup never walks; what a walk finds is announced back to
// the ring owners, so the next cold lookup one-hops again.
func (n *Node) coldFlight(ctx context.Context, addr gaddr.Addr) (*region.Descriptor, error) {
	stageStart := time.Now()
	if d := n.lookupViaRing(ctx, addr); d != nil {
		n.stats.RingHits.Add(1)
		n.mStageRing.ObserveSince(stageStart)
		n.trace("2:ring-one-hop")
		n.rdir.Insert(d)
		return d, nil
	}
	n.mRingFallbacks.Add(1)
	n.trace("2-3:address-map-lookup")
	stageStart = time.Now()
	entry, _, err := n.amap.Lookup(ctx, addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInaccessible, err)
	}
	d, err := n.fetchDescriptor(ctx, entry.Homes, entry.Range.Start)
	if err != nil {
		return nil, err
	}
	n.mStageWalk.ObserveSince(stageStart)
	n.rdir.Insert(d)
	n.ringAnnounce(ctx, d)
	return d, nil
}

// authDesc returns the authoritative descriptor for the region containing
// addr, when this node homes it — the published, read-only copy (see
// region.Descriptor).
func (n *Node) authDesc(addr gaddr.Addr) *region.Descriptor {
	d, _ := n.authDescs.Floor(addr, func(d *region.Descriptor) bool { return d.Range.Contains(addr) })
	return d
}

// authDescByStart returns the authoritative descriptor starting exactly at
// start.
func (n *Node) authDescByStart(start gaddr.Addr) *region.Descriptor {
	d, _ := n.authDescs.Get(start)
	return d
}

// updateAuthDesc publishes a new version of the authoritative descriptor
// starting at start — the one way a published descriptor changes: clone
// the current version, let edit change the clone, store it in place of
// the old one and return it. It returns nil, publishing nothing, when the
// region is not homed here or edit declines. edit runs under the index's
// lock, so it takes no lock.
func (n *Node) updateAuthDesc(start gaddr.Addr, edit func(d *region.Descriptor) bool) *region.Descriptor {
	var out *region.Descriptor
	n.authDescs.Update(start, func(cur *region.Descriptor, ok bool) (*region.Descriptor, bool) {
		if !ok {
			return nil, false
		}
		next := cur.Clone()
		if !edit(next) {
			return cur, true
		}
		out = next
		return next, true
	})
	return out
}

// putAuthDesc installs a clone of an authoritative descriptor.
func (n *Node) putAuthDesc(d *region.Descriptor) {
	n.authDescs.Put(d.Range.Start, d.Clone())
}

// homedDescs lists the authoritative descriptors of regions homed here,
// oldest first (region starts only grow): published copies, read-only.
func (n *Node) homedDescs() []*region.Descriptor {
	var out []*region.Descriptor
	n.authDescs.Range(func(_ gaddr.Addr, d *region.Descriptor) { out = append(out, d) })
	return out
}

// fetchDescriptor asks candidate nodes for the descriptor of the region
// containing addr, returning the first hit.
func (n *Node) fetchDescriptor(ctx context.Context, candidates []ktypes.NodeID, addr gaddr.Addr) (*region.Descriptor, error) {
	d, err := n.fetchDescriptorTolerant(ctx, candidates, addr)
	if err != nil {
		return nil, err
	}
	if d == nil {
		return nil, fmt.Errorf("%w: no candidate knows %v", ErrInaccessible, addr)
	}
	return d, nil
}

func (n *Node) fetchDescriptorTolerant(ctx context.Context, candidates []ktypes.NodeID, addr gaddr.Addr) (*region.Descriptor, error) {
	var lastErr error
	for _, node := range candidates {
		if node == n.cfg.ID {
			if d := n.authDesc(addr); d != nil {
				return d, nil
			}
			if d, ok := n.rdir.Lookup(addr); ok {
				return d, nil
			}
			continue
		}
		resp, err := n.tr.Request(ctx, node, &wire.RegionLookup{Addr: addr})
		if err != nil {
			lastErr = err
			continue
		}
		info, ok := resp.(*wire.RegionInfo)
		if !ok || !info.Found {
			continue
		}
		return info.Desc, nil
	}
	return nil, lastErr
}

// refreshDescriptor drops a stale cached descriptor and re-resolves it;
// used after a home pointer proves stale (§3.2: "the use of a stale home
// pointer will simply result in a message being sent to a node that no
// longer is home").
func (n *Node) refreshDescriptor(ctx context.Context, d *region.Descriptor) (*region.Descriptor, error) {
	n.rdir.Remove(d.Range.Start)
	// Ask the region's own homes first: they are authoritative, while
	// ring and directory answers are cache copies that may trail an
	// asynchronous announce. Fall back to the full lookup path when no
	// listed home answers (e.g. the home list itself is stale).
	if fresh, err := n.fetchDescriptorTolerant(ctx, d.Home, d.Range.Start); err == nil && fresh != nil {
		n.rdir.Insert(fresh)
		return fresh, nil
	}
	return n.lookupRegion(ctx, d.Range.Start)
}

// promoteHome asks the next listed home of a region to take over as
// primary after the current primary became unreachable (§3.5: operations
// are repeatedly tried on all known Khazana nodes).
func (n *Node) promoteHome(ctx context.Context, d *region.Descriptor) (*region.Descriptor, error) {
	for _, candidate := range d.Home[1:] {
		if candidate == n.cfg.ID {
			promoted := n.promoteLocal(ctx, d.Range.Start)
			if promoted != nil {
				return promoted, nil
			}
			continue
		}
		resp, err := n.tr.Request(ctx, candidate, &wire.Promote{Start: d.Range.Start, From: n.cfg.ID})
		if err != nil {
			continue
		}
		info, ok := resp.(*wire.RegionInfo)
		if !ok || !info.Found {
			continue
		}
		n.stats.Promotions.Add(1)
		n.rdir.Insert(info.Desc)
		return info.Desc, nil
	}
	return nil, fmt.Errorf("%w: no home of %v reachable", ErrInaccessible, d.Range.Start)
}

// promoteLocal makes this node the primary home for a region it already
// holds a secondary descriptor for. Concurrent promotions of one region
// collapse into a single flight: the first caller runs the election and
// descriptor reorder, later callers wait for it and adopt its outcome,
// so two clients noticing the dead home at once cannot both reorder the
// home list or run competing elections.
func (n *Node) promoteLocal(ctx context.Context, start gaddr.Addr) *region.Descriptor {
	n.promoMu.Lock()
	if ch, inflight := n.promo[start]; inflight {
		n.promoMu.Unlock()
		<-ch
		if d := n.authDescByStart(start); d != nil {
			if h, err := d.PrimaryHome(); err == nil && h == n.cfg.ID {
				return d
			}
		}
		return nil
	}
	ch := make(chan struct{})
	n.promo[start] = ch
	n.promoMu.Unlock()
	defer func() {
		n.promoMu.Lock()
		delete(n.promo, start)
		n.promoMu.Unlock()
		close(ch)
	}()
	return n.promoteFlight(ctx, start)
}

// promoteFlight is the single in-flight promotion for a region: win the
// region's log election (when a quorum is reachable without the dead
// primary), resume from the replicated log, then take over as primary.
// Promotion must finish even if the triggering request is canceled — a
// half-promoted home would strand the region — so the map update
// detaches from the caller's cancellation.
func (n *Node) promoteFlight(ctx context.Context, start gaddr.Addr) *region.Descriptor {
	snap := n.authDescByStart(start)
	if snap == nil || !snap.HasHome(n.cfg.ID) {
		return nil
	}
	if h, err := snap.PrimaryHome(); err == nil && h == n.cfg.ID {
		// Already primary — a racing caller's flight finished first, or
		// the caller's descriptor was stale. Nothing to reorder.
		return snap
	}

	// One election, then resume from the log (§3.5, upgraded): with three
	// or more listed homes a ballot majority exists without the dead
	// primary, so the candidate must win an election before taking over —
	// the term number fences off any deposed primary that comes back. A
	// two-home region cannot form a quorum without its dead primary and
	// keeps the legacy ad-hoc takeover below, taking the log's leadership
	// unelected so its releases still reach the other home.
	if len(snap.Home) >= 3 {
		if !n.campaignFor(ctx, snap) {
			return nil
		}
		n.replayRepl(snap)
	} else {
		n.repl.Seize(start)
	}

	var homes []ktypes.NodeID
	out := n.updateAuthDesc(start, func(d *region.Descriptor) bool {
		if !d.HasHome(n.cfg.ID) {
			return false
		}
		// Move self to the front of the home list.
		homes = []ktypes.NodeID{n.cfg.ID}
		for _, h := range d.Home {
			if h != n.cfg.ID {
				homes = append(homes, h)
			}
		}
		d.Home = homes
		d.Epoch++
		return true
	})
	if out == nil {
		return nil
	}

	n.stats.Promotions.Add(1)
	n.mHomePromos.Add(1)
	n.rdir.Insert(out)
	// Re-announce the promoted descriptor to its ring owners so one-hop
	// cold lookups resolve to the new home immediately.
	n.ringAnnounce(ctx, out)
	// Best-effort map update so tree walkers find the new home.
	mapCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
	defer cancel()
	if n.mapSetHomes(mapCtx, start, homes) != nil {
		n.mHomeMapFailed.Add(1)
	}
	return out
}

// campaignFor runs the region's failover election with bounded retries:
// split votes or an unreachable straggler back off briefly and retry, so
// one promoteLocal call rides out transient vote denials without pushing
// the failover past the availability bound. A voter whose log is ahead
// ends it at once: this node cannot win, and promoteHome moves on to the
// next listed home, which may be that voter.
func (n *Node) campaignFor(ctx context.Context, d *region.Descriptor) bool {
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := n.repl.Campaign(ctx, d)
		if err == nil {
			return true
		}
		if errors.Is(err, replog.ErrLogBehind) || ctx.Err() != nil || time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// replayRepl resumes the region from its replicated metadata log: every
// page's committed version, owner, and copyset — appended by the old
// home before it acked each release — lands in the local page directory,
// so grants issued by the new home start from the exact state the dead
// primary had acknowledged. Page contents refetch on demand; the
// metadata is what a crash must not lose.
func (n *Node) replayRepl(desc *region.Descriptor) {
	state, ok := n.repl.Snapshot(desc.Range.Start)
	if !ok {
		return
	}
	tab := n.table(desc)
	for page, ver := range state.PageVersion {
		owner := state.Owner[page]
		copyset := state.Copyset[page]
		tab.Update(page, func(e *pagedir.Entry) {
			e.HomedLocal = true
			if ver >= e.Version {
				e.Version = ver
				if owner != ktypes.NilNode {
					e.Owner = owner
				}
				for _, c := range copyset {
					e.AddSharer(c)
				}
			}
		})
	}
}
