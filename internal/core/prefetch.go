package core

import (
	"sync"

	"khazana/internal/consistency"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
)

// Adaptive read-ahead grant pipelining. The home watches the stream of
// demand lock batches each requester sends per region; when the stream
// looks sequential, the home piggybacks grants (and page contents) for
// the next few predicted pages onto the demand reply, so a sequential
// reader pays one RPC per window instead of one per window per prefetch
// miss. The depth K adapts per stream: silent consumption of speculated
// pages (the requester's stream advances past them without re-requesting)
// doubles K, while a re-requested — wasted — speculation halves it, so a
// requester that stops streaming stops costing frames. This is the §2
// "aggressive prefetching" hook realized on the grant path, where the
// batched lock pipeline already amortizes the round trip.

const (
	// prefetchInitialK is the starting read-ahead depth for a stream
	// that just turned sequential.
	prefetchInitialK = 2
	// prefetchMaxK caps the read-ahead depth.
	prefetchMaxK = 32
	// prefetchMaxStreams bounds the tracker; when exceeded, the table
	// resets (streams re-prime in one batch, so the cost is one missed
	// speculation window per active reader).
	prefetchMaxStreams = 256
)

// streamKey identifies one requester's access stream within one region.
type streamKey struct {
	region    gaddr.Addr
	requester ktypes.NodeID
}

// stream is the per-(region, requester) predictor state.
type stream struct {
	// pageSize is the region's page size, cached so Granted (which has
	// no descriptor) can advance the window.
	pageSize uint64
	// nextDemand is the page the requester demands next if the
	// sequential run continues.
	nextDemand gaddr.Addr
	// nextSpec is the first page not yet speculated for this stream;
	// always >= nextDemand once primed.
	nextSpec gaddr.Addr
	// outstanding holds speculated pages not yet confirmed consumed
	// (stream advanced past them) or wasted (re-requested).
	outstanding map[gaddr.Addr]struct{}
	// k is the current read-ahead depth.
	k int
	// primed marks that the stream has shown one sequential
	// continuation; speculation starts on the second sequential batch,
	// so a one-shot random reader never costs a frame.
	primed bool
}

// prefetchPlanner implements consistency.ReadAheadPlanner with a
// per-stream sequential detector and multiplicative K adaptation. It is
// home-side state: the planner lives on the node and serves every region
// homed there.
type prefetchPlanner struct {
	mu      sync.Mutex
	streams map[streamKey]*stream
}

func newPrefetchPlanner() *prefetchPlanner {
	return &prefetchPlanner{streams: make(map[streamKey]*stream)}
}

var _ consistency.ReadAheadPlanner = (*prefetchPlanner)(nil)

// forget drops every requester's stream for a destroyed region. A nil
// planner (read-ahead disabled) has nothing to drop.
func (p *prefetchPlanner) forget(regionStart gaddr.Addr) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for key := range p.streams {
		if key.region == regionStart {
			delete(p.streams, key)
		}
	}
}

// Plan implements consistency.ReadAheadPlanner. pages is the sorted
// demand batch the home is about to grant.
func (p *prefetchPlanner) Plan(desc *region.Descriptor, requester ktypes.NodeID, pages []gaddr.Addr) []gaddr.Addr {
	if len(pages) == 0 {
		return nil
	}
	pageSize := uint64(desc.Attrs.PageSize)
	if pageSize == 0 {
		return nil
	}
	first, last := pages[0], pages[len(pages)-1]
	after, err := last.Add(pageSize)
	if err != nil {
		return nil
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	key := streamKey{region: desc.Range.Start, requester: requester}
	s, ok := p.streams[key]
	if !ok {
		if len(p.streams) >= prefetchMaxStreams {
			p.streams = make(map[streamKey]*stream)
		}
		s = &stream{
			pageSize:    pageSize,
			nextDemand:  after,
			nextSpec:    after,
			outstanding: make(map[gaddr.Addr]struct{}),
			k:           prefetchInitialK,
		}
		p.streams[key] = s
		return nil
	}

	// Settle the previous window's speculations: a speculated page the
	// requester re-requests was wasted (it never arrived, was evicted,
	// or was invalidated); a speculated page the stream advanced past
	// was consumed locally — a hit the home only ever sees as silence.
	waste := 0
	for _, pg := range pages {
		if _, out := s.outstanding[pg]; out {
			delete(s.outstanding, pg)
			waste++
		}
	}
	hits := 0
	for pg := range s.outstanding {
		if pg.Less(first) {
			delete(s.outstanding, pg)
			hits++
		}
	}

	// Sequential iff the batch starts exactly at the predicted next
	// demand page, or within the already-speculated window (the reader
	// consumed some prefetches locally and surfaced here for the rest).
	sequential := first == s.nextDemand
	if !sequential && !s.nextSpec.Less(first) && !first.Less(s.nextDemand) {
		sequential = true
	}
	if !sequential {
		s.nextDemand = after
		s.nextSpec = after
		s.outstanding = make(map[gaddr.Addr]struct{})
		s.primed = false
		return nil
	}

	if waste > 0 {
		s.k /= 2
		if s.k < 1 {
			s.k = 1
		}
	} else if hits > 0 {
		s.k *= 2
		if s.k > prefetchMaxK {
			s.k = prefetchMaxK
		}
	}

	wasPrimed := s.primed
	s.primed = true
	s.nextDemand = after
	if s.nextSpec.Less(after) {
		s.nextSpec = after
	}
	if !wasPrimed {
		return nil
	}

	// Candidates: up to K pages beyond the demand window, starting where
	// the last speculation ended, clipped to the region.
	var out []gaddr.Addr
	limit, err := after.Add(uint64(s.k) * pageSize)
	if err != nil {
		limit = desc.Range.Start // overflow: empty window below
	}
	for pg := s.nextSpec; pg.Less(limit) && desc.Range.Contains(pg); {
		out = append(out, pg)
		next, err := pg.Add(pageSize)
		if err != nil {
			break
		}
		pg = next
	}
	return out
}

// Granted implements consistency.ReadAheadPlanner: only pages that
// actually shipped enter the outstanding window, so candidates the CM
// filtered out (e.g. write-locked pages) are re-planned next batch.
func (p *prefetchPlanner) Granted(regionStart gaddr.Addr, requester ktypes.NodeID, pages []gaddr.Addr) {
	if len(pages) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.streams[streamKey{region: regionStart, requester: requester}]
	if !ok {
		return
	}
	for _, pg := range pages {
		s.outstanding[pg] = struct{}{}
		if next, err := pg.Add(s.pageSize); err == nil && s.nextSpec.Less(next) {
			s.nextSpec = next
		}
	}
}
