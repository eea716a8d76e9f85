package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"khazana/internal/addrmap"
	"khazana/internal/consistency"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/pagedir"
	"khazana/internal/region"
	"khazana/internal/wire"
)

// --- address map mutation routing --------------------------------------------
//
// All map mutations execute at the map region's home node, serialized
// under mapMu; other nodes route them there with the Map* messages. Reads
// (tree walks) run anywhere against release-consistent replicas.

// mapReserveRange grants a chunk of unreserved address space.
func (n *Node) mapReserveRange(ctx context.Context, size, align uint64) (gaddr.Range, error) {
	if n.cfg.ID == n.cfg.MapHome {
		n.mapMu.Lock()
		defer n.mapMu.Unlock()
		//khazana:block-ok the map home serializes all map mutations under mapMu by design (see package comment); the CM gate wait is the reservation protocol itself
		return n.amap.ReserveRange(ctx, size, align)
	}
	resp, err := n.tr.Request(ctx, n.cfg.MapHome, &wire.ReserveSpace{From: n.cfg.ID, Size: size})
	if err != nil {
		return gaddr.Range{}, err
	}
	grant, ok := resp.(*wire.SpaceGrant)
	if !ok {
		return gaddr.Range{}, fmt.Errorf("core: unexpected reply %T", resp)
	}
	if grant.Err != "" {
		return gaddr.Range{}, errors.New(grant.Err)
	}
	return grant.Range, nil
}

// mapInsert records a region in the address map.
func (n *Node) mapInsert(ctx context.Context, r gaddr.Range, homes []ktypes.NodeID) error {
	if n.cfg.ID == n.cfg.MapHome {
		n.mapMu.Lock()
		defer n.mapMu.Unlock()
		//khazana:block-ok map mutations serialize under mapMu at the map home by design
		return n.amap.Insert(ctx, mapEntry(r, homes))
	}
	return n.mapRPC(ctx, &wire.MapInsert{Range: r, Homes: homes})
}

// mapRemove deletes a region from the address map.
func (n *Node) mapRemove(ctx context.Context, start gaddr.Addr) error {
	if n.cfg.ID == n.cfg.MapHome {
		n.mapMu.Lock()
		defer n.mapMu.Unlock()
		//khazana:block-ok map mutations serialize under mapMu at the map home by design
		return n.amap.Remove(ctx, start)
	}
	return n.mapRPC(ctx, &wire.MapRemove{Start: start})
}

// mapSetHomes updates a region's home list in the address map.
func (n *Node) mapSetHomes(ctx context.Context, start gaddr.Addr, homes []ktypes.NodeID) error {
	if n.cfg.ID == n.cfg.MapHome {
		n.mapMu.Lock()
		defer n.mapMu.Unlock()
		//khazana:block-ok map mutations serialize under mapMu at the map home by design
		return n.amap.SetHomes(ctx, start, homes)
	}
	return n.mapRPC(ctx, &wire.MapSetHomes{Start: start, Homes: homes})
}

func (n *Node) mapRPC(ctx context.Context, m wire.Msg) error {
	resp, err := n.tr.Request(ctx, n.cfg.MapHome, m)
	if err != nil {
		return err
	}
	if ack, ok := resp.(*wire.Ack); ok && ack.Err != "" {
		return errors.New(ack.Err)
	}
	return nil
}

func mapEntry(r gaddr.Range, homes []ktypes.NodeID) addrmap.Entry {
	return addrmap.Entry{Range: r, Homes: homes}
}

// --- background loops ------------------------------------------------------

// heartbeatLoop reports liveness to the cluster manager (§3.1) and adopts
// the membership view it answers with.
func (n *Node) heartbeatLoop() {
	defer n.done.Done()
	ticker := time.NewTicker(n.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			n.SendHeartbeat()
		case <-n.stop:
			return
		}
	}
}

// SendHeartbeat sends one heartbeat (also callable by tests and tools).
func (n *Node) SendHeartbeat() {
	if n.manager != nil {
		return // the manager's own liveness is implicit
	}
	// Fold a timestamped ping into the heartbeat tick so the RTT
	// histogram tracks the manager link without extra background load.
	if n.mPingRTT != nil {
		pingCtx, pingCancel := context.WithTimeout(context.Background(), 2*time.Second)
		//khazana:ignore-err an unreachable manager shows up as heartbeat failure below; the RTT sample is best effort
		_, _ = n.PingPeer(pingCtx, n.cfg.ClusterManager)
		pingCancel()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := n.tr.Request(ctx, n.cfg.ClusterManager, &wire.Heartbeat{Node: n.cfg.ID})
	if err != nil {
		return
	}
	if view, ok := resp.(*wire.ClusterView); ok {
		n.setMembers(view.Members)
		n.ringSync(ctx)
	}
}

// retryLoop drains the background release-retry queue (§3.5: "the Khazana
// system keeps trying the operation in the background until it
// succeeds").
func (n *Node) retryLoop() {
	defer n.done.Done()
	ticker := time.NewTicker(n.cfg.RetryInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			n.RunRetries()
		case <-n.stop:
			return
		}
	}
}

// queueRetry enqueues a failed release-side operation on the shard owning
// its page, so concurrent releases on disjoint regions queue without
// contending.
func (n *Node) queueRetry(op retryOp) {
	rs := n.retryShardFor(op.page)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.ops = append(rs.ops, op)
}

// PendingRetries reports the queue length across all shards.
func (n *Node) PendingRetries() int {
	total := 0
	for i := range n.retryShards {
		rs := &n.retryShards[i]
		rs.mu.Lock()
		total += len(rs.ops)
		rs.mu.Unlock()
	}
	return total
}

// RunRetries attempts every queued release once (also callable by tests).
// Retries bound for the same (home, region) pair ride one redelivery
// through the region's CM, which sends the message its foreground release
// path uses.
func (n *Node) RunRetries() {
	// Drain every shard first (shard locks are taken one at a time, never
	// nested), then retry the combined queue so cross-shard operations
	// still batch by home and region.
	var ops []retryOp
	for i := range n.retryShards {
		rs := &n.retryShards[i]
		rs.mu.Lock()
		ops = append(ops, rs.ops...)
		rs.ops = nil
		rs.mu.Unlock()
	}
	if len(ops) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	// Batches group by region as well as home: the receiver routes the
	// whole batch by its first page's region.
	type groupKey struct {
		home  ktypes.NodeID
		start gaddr.Addr
	}
	type group struct {
		desc *region.Descriptor
		ops  []retryOp
	}
	groups := make(map[groupKey]*group)
	var order []groupKey
	for _, op := range ops {
		desc, err := n.lookupRegion(ctx, op.page)
		if err != nil {
			n.queueRetry(op)
			continue
		}
		home, err := desc.PrimaryHome()
		if err != nil {
			n.queueRetry(op)
			continue
		}
		if home == n.cfg.ID {
			// We became the home; nothing to notify.
			n.stats.ReleaseRetries.Add(1)
			continue
		}
		key := groupKey{home: home, start: desc.Range.Start}
		if groups[key] == nil {
			groups[key] = &group{desc: desc}
			order = append(order, key)
		}
		groups[key].ops = append(groups[key].ops, op)
	}
	for _, key := range order {
		g := groups[key]
		rel := make([]consistency.Redelivery, len(g.ops))
		for i, op := range g.ops {
			rel[i] = consistency.Redelivery{Page: op.page, Mode: op.mode, Dirty: op.dirty}
		}
		cm, err := n.cmFor(g.desc)
		if err != nil {
			for _, op := range g.ops {
				n.queueRetry(op)
			}
			continue
		}
		errs := cm.Redeliver(ctx, g.desc, rel)
		tab := n.dir.At(key.start)
		for i, op := range g.ops {
			if errs != nil && errs[i] != nil {
				n.queueRetry(op)
				continue
			}
			// Delivered: the local copy is no longer the only holder of
			// the update, so it may be victimized again.
			if tab != nil && op.dirty {
				if _, listed := tab.Lookup(op.page); listed {
					tab.Update(op.page, func(e *pagedir.Entry) { e.Dirty = false })
				}
			}
			n.stats.ReleaseRetries.Add(1)
		}
	}
}

// replicaLoop maintains each homed region's minimum replica count (§3.5).
func (n *Node) replicaLoop() {
	defer n.done.Done()
	ticker := time.NewTicker(n.cfg.ReplicaInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			n.MaintainReplicas()
		case <-n.stop:
			return
		}
	}
}

// MaintainReplicas pushes page copies and secondary descriptors to other
// nodes until every homed region with MinReplicas > 1 has enough homes
// (also callable by tests and tools).
func (n *Node) MaintainReplicas() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, desc := range n.homedDescs() {
		if desc.Attrs.MinReplicas <= 1 {
			continue
		}
		n.pushReplicas(ctx, n.ensureHomes(ctx, desc))
	}
}

// ensureHomes extends the region's home list with alive members up to
// MinReplicas, recording the change in the map and the descriptor. It
// returns the descriptor as it now stands.
func (n *Node) ensureHomes(ctx context.Context, desc *region.Descriptor) *region.Descriptor {
	want := int(desc.Attrs.MinReplicas)
	if len(desc.Home) >= want {
		return desc
	}
	alive := n.Members()
	homes := append([]ktypes.NodeID(nil), desc.Home...)
	for _, m := range alive {
		if len(homes) >= want {
			break
		}
		if !slices.Contains(homes, m) {
			homes = append(homes, m)
		}
	}
	if len(homes) == len(desc.Home) {
		return desc
	}
	out := n.updateAuthDesc(desc.Range.Start, func(d *region.Descriptor) bool {
		d.Home = homes
		d.Epoch++
		return true
	})
	if out == nil {
		return desc
	}
	n.rdir.Insert(out)
	_ = n.mapSetHomes(ctx, out.Range.Start, homes)
	// Record the membership change in the region's replicated log so
	// standbys learn the grown home list through the same channel as
	// release deltas (best effort: a deposed or not-yet-elected home
	// skips the entry and the next round repeats it).
	_ = n.repl.Append(ctx, out, wire.ReplEntry{
		Op:    wire.ReplOpHomes,
		Nodes: homes,
		Val:   out.Epoch,
	})
	// Ship the descriptor to the new secondary homes so they can serve
	// lookups and accept promotion.
	for _, h := range homes[1:] {
		if h == n.cfg.ID {
			continue
		}
		//khazana:ignore-err descriptor shipping repeats on the next replica-maintenance round; an unreachable secondary just lags
		_, _ = n.tr.Request(ctx, h, &wire.AttrSet{Desc: out, Principal: out.Attrs.ACL.Owner})
	}
	n.ringAnnounce(ctx, out)
	return out
}

// pushReplicas copies locally stored pages of the region to each
// secondary home not yet in their copysets. Each pushed page is a repair:
// a secondary that should already hold it (write-through or an earlier
// maintenance round) but did not. A failed chunk adds no sharer, so the
// next round repeats it.
func (n *Node) pushReplicas(ctx context.Context, desc *region.Descriptor) {
	if len(desc.Home) < 2 {
		return
	}
	pages := desc.Pages(0, desc.Range.Size)
	tab := n.table(desc)
	for _, h := range desc.Home[1:] {
		if h == n.cfg.ID {
			continue
		}
		var missing []gaddr.Addr
		for _, page := range pages {
			if e, _ := tab.Lookup(page); !e.InCopyset(h) {
				missing = append(missing, page)
			}
		}
		pushed, _ := n.pushPages(ctx, h, tab, missing)
		n.mReplicaRepairs.Add(uint64(pushed))
	}
}

// replicaPutBytes caps the page bytes one ReplicaPut carries, well under
// the transport's 4 MiB pooled frame.
const replicaPutBytes = 1 << 20

// pushPages sends the locally stored ones of pages, all in tab, to a node as
// ReplicaPuts of at most replicaPutBytes of page bytes each; pages never
// written are skipped, as they zero-fill everywhere. The target joins the
// copyset of every page it acked. It returns how many pages that was,
// stopping at the first chunk that failed.
func (n *Node) pushPages(ctx context.Context, to ktypes.NodeID, tab *pagedir.Table, pages []gaddr.Addr) (int, error) {
	pushed, size := 0, 0
	put := &wire.ReplicaPut{From: n.cfg.ID}
	for i, page := range pages {
		if f, ok := n.storedFrame(tab, page); ok {
			entry, _ := tab.Lookup(page)
			it := wire.UpdateItem{Page: page, Version: entry.Version, Origin: n.cfg.ID}
			it.SetFrame(f)
			f.Release()
			put.Items = append(put.Items, it)
			size += len(it.Data)
		}
		if len(put.Items) == 0 || (size < replicaPutBytes && i < len(pages)-1) {
			continue
		}
		resp, err := n.tr.Request(ctx, to, put)
		if ack, ok := resp.(*wire.Ack); err == nil && ok && ack.Err != "" {
			err = errors.New(ack.Err)
		}
		// The items held their frames, and so their Data views, until the
		// request was marshaled.
		put.ReleaseFrames()
		if err != nil {
			return pushed, fmt.Errorf("core: replica push to %v: %w", to, err)
		}
		for _, it := range put.Items {
			tab.Update(it.Page, func(e *pagedir.Entry) { e.AddSharer(to) })
		}
		pushed += len(put.Items)
		put.Items, size = put.Items[:0], 0
	}
	return pushed, nil
}
