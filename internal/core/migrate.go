package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/pagedir"
	"khazana/internal/region"
	"khazana/internal/security"
	"khazana/internal/wire"
)

// Region migration: the mechanism behind "resource- and load-aware
// migration and replication policies" the paper lists as future work
// (§7). Khazana "is free to distribute object state across the network in
// any way it sees fit" (§2); MigrateRegion hands a region's primary-home
// role to another node, shipping its pages and descriptor, and updating
// the address map. Clients with stale descriptors recover through the
// ordinary stale-home path (§3.2).
//
// Migration is a quiescent-point operation: the home refuses while any of
// the region's pages hold active global locks. Callers (policies) retry.

// ErrBusyRegion reports a migration attempted while the region has active
// lock holders.
var ErrBusyRegion = errors.New("core: region busy; migrate when quiescent")

// MigrateRegion moves the primary home of the region starting at start to
// newHome. It can be called on any node; the request is forwarded to the
// current primary home.
func (n *Node) MigrateRegion(ctx context.Context, start gaddr.Addr, newHome ktypes.NodeID, principal ktypes.Principal) error {
	desc, err := n.lookupRegion(ctx, start)
	if err != nil {
		return err
	}
	if desc.Range.Start != start {
		return ErrNotRegionStart
	}
	home, err := desc.PrimaryHome()
	if err != nil {
		return err
	}
	if home != n.cfg.ID {
		fresh, err := n.forwardOp(ctx, desc, func() wire.Msg {
			return &wire.Migrate{Start: start, NewHome: newHome, Principal: principal}
		})
		if err != nil || fresh == nil {
			return err
		}
		// The refresh says this node is now the home: fall through.
	}
	return n.migrateLocal(ctx, start, newHome, principal)
}

// migrateLocal performs the handoff at the current primary home.
func (n *Node) migrateLocal(ctx context.Context, start gaddr.Addr, newHome ktypes.NodeID, principal ktypes.Principal) error {
	desc := n.authDescByStart(start)
	if desc == nil {
		return fmt.Errorf("%w: %v not homed here", ErrInaccessible, start)
	}
	if err := desc.Attrs.ACL.Check(principal, security.PermAdmin); err != nil {
		return err
	}
	if newHome == n.cfg.ID {
		return nil
	}
	if !slices.Contains(n.Members(), newHome) {
		return fmt.Errorf("core: migration target %v is not a known member", newHome)
	}
	// Quiescence check: no page of the region may be locked — locally
	// (release/eventual protocols) or globally (CREW's manager side); both
	// are the page records' lock slots.
	tab := n.table(desc)
	pages := desc.Pages(0, desc.Range.Size)
	for _, page := range pages {
		if tab.Held(page) {
			return ErrBusyRegion
		}
	}
	// Ship every locally stored page, a byte-capped chunk per round trip.
	if _, err := n.pushPages(ctx, newHome, tab, pages); err != nil {
		return fmt.Errorf("core: migrate: %w", err)
	}
	// Hand over the descriptor: new home first, this node demoted to
	// secondary.
	homes := []ktypes.NodeID{newHome}
	for _, h := range desc.Home {
		if h != newHome {
			homes = append(homes, h)
		}
	}
	updated := desc.Clone()
	updated.Home = homes
	updated.Epoch++
	resp, err := n.tr.Request(ctx, newHome, &wire.AttrSet{Desc: updated, Principal: principal})
	if err != nil {
		return fmt.Errorf("core: migrate descriptor: %w", err)
	}
	if ack, ok := resp.(*wire.Ack); ok && ack.Err != "" {
		return fmt.Errorf("core: migrate descriptor: %s", ack.Err)
	}
	// Commit locally and in the address map.
	n.updateAuthDesc(start, func(d *region.Descriptor) bool {
		d.Home = homes
		d.Epoch = updated.Epoch
		return true
	})
	n.rdir.Insert(updated)
	// Re-announce so one-hop cold lookups resolve to the new home.
	n.ringAnnounce(ctx, updated)
	if err := n.mapSetHomes(ctx, start, homes); err != nil {
		return fmt.Errorf("core: migrate map entry: %w", err)
	}
	// This node's copies remain valid replicas; mark them shared.
	for _, page := range pages {
		tab.Update(page, func(e *pagedir.Entry) {
			if e.State == pagedir.Owned {
				e.State = pagedir.Shared
			}
		})
	}
	return nil
}

// statsReply serves the full telemetry snapshot over the wire: every
// registered counter, gauge, and histogram, the membership view, plus the
// span ring when the caller asks for it.
func (n *Node) statsReply(includeSpans bool) *wire.StatsReply {
	snap := n.MetricsSnapshot()
	reply := &wire.StatsReply{Node: n.cfg.ID, Members: n.Members()}
	for _, c := range snap.Counters {
		reply.Counters = append(reply.Counters, wire.NamedCounter{Name: c.Name, Value: c.Value})
	}
	for _, g := range snap.Gauges {
		reply.Gauges = append(reply.Gauges, wire.NamedGauge{Name: g.Name, Value: g.Value})
	}
	for _, h := range snap.Histograms {
		reply.Hists = append(reply.Hists, wire.HistStat{
			Name:    h.Name,
			Count:   h.Count,
			Sum:     h.Sum,
			Buckets: h.Buckets,
		})
	}
	if includeSpans {
		for _, s := range n.TraceSpans() {
			reply.Spans = append(reply.Spans, wire.SpanStat{
				Trace:         uint64(s.Trace),
				Span:          uint64(s.Span),
				Parent:        uint64(s.Parent),
				Node:          ktypes.NodeID(s.Node),
				Name:          s.Name,
				StartUnixNano: s.Start.UnixNano(),
				DurationNs:    int64(s.Duration),
			})
		}
	}
	return reply
}
