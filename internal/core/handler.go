package core

import (
	"context"
	"fmt"

	"khazana/internal/consistency"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/telemetry"
	"khazana/internal/wire"
)

// handle dispatches one inbound message. CM traffic routes to the
// consistency manager of the region containing the page; cluster traffic
// routes to the manager; client operations execute on behalf of remote
// clients (and of peers forwarding home-side operations).
func (n *Node) handle(ctx context.Context, from ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	// Requests that arrived with a trace envelope get a handler-side span;
	// untraced traffic pays one context lookup.
	if _, traced := telemetry.FromContext(ctx); traced {
		var fl telemetry.Flight
		ctx, fl = telemetry.ContinueSpan(ctx, n.rec, uint32(n.cfg.ID), handlerSpanNames[m.Kind()])
		defer fl.Finish()
	}
	switch msg := m.(type) {
	case *wire.Ping:
		return &wire.Pong{From: n.cfg.ID, EchoUnixNano: msg.SentUnixNano}, nil

	// --- consistency traffic ------------------------------------------
	case *wire.InvalidateBatch:
		if len(msg.Items) == 0 {
			return nil, fmt.Errorf("core: %v got empty invalidate batch", n.cfg.ID)
		}
		page := msg.Items[0].Page
		if msg.NewOwner != ktypes.NilNode {
			return n.handleCM(ctx, from, page, m)
		}
		// A teardown (dropRegionPages): the region is gone, and no destroy
		// announce follows (ringDestroy). It is resolved from this node's
		// own tables only, so the reply never waits on a third node, and
		// forgetRegion drops every copy held here and tombstones the start.
		if d, ok := n.rdir.Lookup(page); ok {
			n.forgetRegion(d.Range.Start)
		} else if d, ok := n.ringTable.Lookup(page); ok {
			n.forgetRegion(d.Range.Start)
		} else if tab := n.dir.Find(page); tab != nil {
			n.forgetRegion(tab.Start())
		}
		return &wire.Ack{}, nil
	case *wire.PageReqBatch:
		if len(msg.Pages) == 0 {
			return nil, fmt.Errorf("core: %v got empty page request batch", n.cfg.ID)
		}
		// All pages of a batch belong to one region (the sender groups
		// them by home); route by the first.
		return n.handleCM(ctx, from, msg.Pages[0], m)
	case *wire.ReleaseBatch:
		if len(msg.Items) == 0 {
			return nil, fmt.Errorf("core: %v got empty release batch", n.cfg.ID)
		}
		return n.handleCM(ctx, from, msg.Items[0].Page, m)
	case *wire.UpdateBatch:
		if len(msg.Items) == 0 {
			return nil, fmt.Errorf("core: %v got empty update batch", n.cfg.ID)
		}
		return n.handleCM(ctx, from, msg.Items[0].Page, m)
	case *wire.SnapshotReqBatch:
		if len(msg.Pages) == 0 {
			return nil, fmt.Errorf("core: %v got empty snapshot request batch", n.cfg.ID)
		}
		return n.handleCM(ctx, from, msg.Pages[0], m)

	// --- region descriptors ----------------------------------------------
	case *wire.RegionLookup:
		return n.handleRegionLookup(msg), nil
	case *wire.AttrSet:
		n.putAuthDesc(msg.Desc)
		n.rdir.Insert(msg.Desc)
		return &wire.Ack{}, nil
	case *wire.Promote:
		if d := n.promoteLocal(ctx, msg.Start); d != nil {
			return &wire.RegionInfo{Found: true, Desc: d}, nil
		}
		return &wire.RegionInfo{Found: false, Err: "not a secondary home"}, nil
	case *wire.RingLookup:
		return n.handleRingLookup(msg), nil
	case *wire.RingAnnounce:
		n.handleRingAnnounce(msg)
		return nil, nil

	// --- replicated region-metadata log ------------------------------------
	case *wire.ReplAppend:
		if len(msg.Pages) > 0 { // a release's: its CM stores the pages first
			return n.handleCM(ctx, from, msg.Pages[0].Page, m)
		}
		return n.repl.HandleAppend(msg), nil
	case *wire.ReplPromote:
		return n.repl.HandleVote(msg), nil

	// --- replication ------------------------------------------------------
	case *wire.ReplicaPut:
		if len(msg.Items) == 0 {
			return &wire.Ack{}, nil
		}
		desc, err := n.lookupRegion(ctx, msg.Items[0].Page)
		if err != nil {
			return ackErr(err), nil
		}
		return ackErr(consistency.StoreUpdates(hostView{n}, desc, msg.From, msg.Items)), nil

	// --- address map mutations (map home only) -----------------------------
	case *wire.ReserveSpace:
		if n.cfg.ID != n.cfg.MapHome {
			return &wire.SpaceGrant{Err: "not the map home"}, nil
		}
		r, err := n.mapReserveRange(ctx, msg.Size, 0)
		if err != nil {
			return &wire.SpaceGrant{Err: err.Error()}, nil
		}
		return &wire.SpaceGrant{Range: r}, nil
	case *wire.MapInsert:
		return ackErr(n.mapInsert(ctx, msg.Range, msg.Homes)), nil
	case *wire.MapRemove:
		return ackErr(n.mapRemove(ctx, msg.Start)), nil
	case *wire.MapSetHomes:
		return ackErr(n.mapSetHomes(ctx, msg.Start, msg.Homes)), nil

	// --- cluster management (manager only) ---------------------------------
	case *wire.Join:
		if n.manager == nil {
			return nil, fmt.Errorf("core: %v is not the cluster manager", n.cfg.ID)
		}
		view := n.manager.Join(msg.Node, msg.Addr)
		n.ringSync(ctx)
		return view, nil
	case *wire.Heartbeat:
		if n.manager == nil {
			return nil, fmt.Errorf("core: %v is not the cluster manager", n.cfg.ID)
		}
		n.manager.Heartbeat(msg)
		n.ringSync(ctx)
		return n.manager.View(), nil
	case *wire.Leave:
		if n.manager != nil {
			n.manager.Leave(msg.Node)
			n.ringSync(ctx)
		}
		return &wire.Ack{}, nil

	// --- client operations --------------------------------------------------
	case *wire.CReserve:
		start, err := n.Reserve(ctx, msg.Size, msg.Attrs, msg.Principal)
		if err != nil {
			return &wire.CReserveResp{Err: err.Error()}, nil
		}
		return &wire.CReserveResp{Start: start}, nil
	case *wire.CUnreserve:
		return ackErr(n.Unreserve(ctx, msg.Start, msg.Principal)), nil
	case *wire.CAllocate:
		return ackErr(n.Allocate(ctx, msg.Start, msg.Principal)), nil
	case *wire.CFree:
		return ackErr(n.Free(ctx, msg.Start, msg.Principal)), nil
	case *wire.CSetAttr:
		return ackErr(n.SetAttr(ctx, msg.Start, msg.Attrs, msg.Principal)), nil
	case *wire.CGetAttr:
		d, err := n.GetAttr(ctx, msg.Addr)
		if err != nil {
			return &wire.RegionInfo{Found: false, Err: err.Error()}, nil
		}
		return &wire.RegionInfo{Found: true, Desc: d}, nil
	case *wire.CLock:
		lc, err := n.Lock(ctx, msg.Range, msg.Mode, msg.Principal)
		if err != nil {
			return &wire.CLockResp{Err: err.Error()}, nil
		}
		return &wire.CLockResp{LockID: lc.id}, nil
	case *wire.CUnlock:
		lc, err := n.lockByID(msg.LockID)
		if err != nil {
			return &wire.Ack{Err: err.Error()}, nil
		}
		return ackErr(n.Unlock(ctx, lc)), nil
	case *wire.CRead:
		lc, err := n.lockByID(msg.LockID)
		if err != nil {
			return &wire.CData{Err: err.Error()}, nil
		}
		data, err := n.Read(lc, msg.Addr, msg.Len)
		if err != nil {
			return &wire.CData{Err: err.Error()}, nil
		}
		return &wire.CData{Data: data}, nil
	case *wire.CWrite:
		lc, err := n.lockByID(msg.LockID)
		if err != nil {
			return &wire.Ack{Err: err.Error()}, nil
		}
		return ackErr(n.Write(lc, msg.Addr, msg.Data)), nil

	// --- migration and introspection ---------------------------------------
	case *wire.Migrate:
		return ackErr(n.MigrateRegion(ctx, msg.Start, msg.NewHome, msg.Principal)), nil
	case *wire.StatsQuery:
		return n.statsReply(msg.IncludeSpans), nil

	//khazana:wire-default middleware kinds route through the app-handler hook; truly unknown kinds error below
	default:
		if h := n.appHandler(); h != nil {
			if resp, handled, err := h(ctx, from, m); handled {
				return resp, err
			}
		}
		return nil, fmt.Errorf("core: %v cannot handle %T", n.cfg.ID, m)
	}
}

// handlerSpanNames holds each wire kind's handler span name
// ("handle:*wire.PageReqBatch"), built once so a traced request does not
// format its name. Every message type is a registered wire kind.
var handlerSpanNames = wire.TypeNames("handle:")

// AppHandler processes application-level messages the daemon itself does
// not understand, letting middleware layered on Khazana (e.g. a
// distributed object runtime, §4.2) receive peer traffic through the
// daemon's transport. Return handled=false to fall through to the
// daemon's unknown-message error.
type AppHandler func(ctx context.Context, from ktypes.NodeID, m wire.Msg) (resp wire.Msg, handled bool, err error)

// SetAppHandler installs the application-message hook.
func (n *Node) SetAppHandler(h AppHandler) {
	n.appMu.Lock()
	defer n.appMu.Unlock()
	n.app = h
}

func (n *Node) appHandler() AppHandler {
	n.appMu.Lock()
	defer n.appMu.Unlock()
	return n.app
}

// Request sends an RPC to a peer daemon; middleware layers use it for
// their own traffic.
func (n *Node) Request(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	return n.tr.Request(ctx, to, m)
}

// ackErr wraps an operation result as an Ack.
func ackErr(err error) *wire.Ack {
	if err != nil {
		return &wire.Ack{Err: err.Error()}
	}
	return &wire.Ack{}
}

// handleCM routes consistency traffic to the CM of the region containing
// the page.
func (n *Node) handleCM(ctx context.Context, from ktypes.NodeID, page gaddr.Addr, m wire.Msg) (wire.Msg, error) {
	desc, err := n.lookupRegion(ctx, page)
	if err != nil {
		return nil, fmt.Errorf("core: CM traffic for unknown page %v: %w", page, err)
	}
	cm, err := n.cmFor(desc)
	if err != nil {
		return nil, err
	}
	// Feed the load-aware migration policy: this node homes the region
	// and from is generating its consistency traffic. The map region is
	// pinned to its home and never migrates.
	if home, err := desc.PrimaryHome(); err == nil && home == n.cfg.ID &&
		desc.Range.Start != n.mapDesc.Range.Start {
		n.access.record(desc.Range.Start, from)
	}
	return cm.Handle(ctx, desc, from, m)
}

// cmFor returns the consistency manager of the region's protocol.
func (n *Node) cmFor(desc *region.Descriptor) (consistency.CM, error) {
	cm, ok := n.cms[desc.Attrs.Protocol]
	if !ok {
		return nil, fmt.Errorf("core: no CM for protocol %v", desc.Attrs.Protocol)
	}
	return cm, nil
}

// handleRegionLookup serves descriptor queries: authoritative descriptors
// first, then the region directory cache.
func (n *Node) handleRegionLookup(msg *wire.RegionLookup) *wire.RegionInfo {
	if n.mapDesc.Range.Contains(msg.Addr) {
		return &wire.RegionInfo{Found: true, Desc: n.mapDesc}
	}
	if d := n.authDesc(msg.Addr); d != nil {
		return &wire.RegionInfo{Found: true, Desc: d}
	}
	if d, ok := n.rdir.Lookup(msg.Addr); ok {
		return &wire.RegionInfo{Found: true, Desc: d}
	}
	return &wire.RegionInfo{Found: false}
}

// Protocols lists the consistency protocols this daemon can serve.
func (n *Node) Protocols() []region.Protocol {
	out := make([]region.Protocol, 0, len(n.cms))
	for p := range n.cms {
		out = append(out, p)
	}
	return out
}
