package replog

import (
	"maps"
	"sort"

	"khazana/internal/enc"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/wire"
)

// RegionState is the materialized result of replaying a region's
// metadata log up to its commit index: everything a standby needs to
// resume as primary home without a lost-release window. Page contents
// arrive beside the entries (a release's append carries them) or on the
// replication data path (UpdateBatch/ReplicaPut); the state holds only
// the control state naming which versions exist and who holds them.
type RegionState struct {
	// PageVersion is the committed version of each page released at the
	// home (only pages that have seen a write release appear).
	PageVersion map[gaddr.Addr]uint64
	// Owner is the page's owner after its latest committed release.
	Owner map[gaddr.Addr]ktypes.NodeID
	// Copyset is the page's sharer set after its latest committed
	// release. The slices are shared with the log entries (and, on the
	// leader, the page directory) and are never modified in place.
	Copyset map[gaddr.Addr][]ktypes.NodeID
	// PubEpoch is the home's publish epoch after the latest committed
	// release (snapshot cut counter).
	PubEpoch uint64
	// Homes is the region's committed home list, primary first, and
	// HomeEpoch the descriptor epoch it was installed at.
	Homes     []ktypes.NodeID
	HomeEpoch uint64
}

func newRegionState() RegionState {
	return RegionState{
		PageVersion: make(map[gaddr.Addr]uint64),
		Owner:       make(map[gaddr.Addr]ktypes.NodeID),
		Copyset:     make(map[gaddr.Addr][]ktypes.NodeID),
	}
}

// apply folds one committed entry into the state.
func (s *RegionState) apply(en *wire.ReplEntry) {
	switch en.Op {
	case wire.ReplOpRelease:
		if en.Val > s.PageVersion[en.Page] {
			s.PageVersion[en.Page] = en.Val
		}
		s.Owner[en.Page] = en.Node
		s.Copyset[en.Page] = en.Nodes
		if en.Aux > s.PubEpoch {
			s.PubEpoch = en.Aux
		}
	case wire.ReplOpHomes:
		s.Homes = append([]ktypes.NodeID(nil), en.Nodes...)
		if en.Val > s.HomeEpoch {
			s.HomeEpoch = en.Val
		}
	}
}

// clone returns a copy safe to hand outside the log's locks: its maps are
// its own, and its copysets are shared, read-only.
func (s *RegionState) clone() RegionState {
	return RegionState{
		PageVersion: maps.Clone(s.PageVersion),
		Owner:       maps.Clone(s.Owner),
		Copyset:     maps.Clone(s.Copyset),
		PubEpoch:    s.PubEpoch,
		Homes:       append([]ktypes.NodeID(nil), s.Homes...),
		HomeEpoch:   s.HomeEpoch,
	}
}

// sortedPages returns the state's page keys in address order so the
// encoding (and therefore snapshot bytes and the durable tail) is
// deterministic.
func (s *RegionState) sortedPages() []gaddr.Addr {
	pages := make([]gaddr.Addr, 0, len(s.PageVersion))
	for p := range s.PageVersion {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].Less(pages[j]) })
	return pages
}

// EncodeTo appends the state's encoding to e.
func (s *RegionState) EncodeTo(e *enc.Encoder) {
	pages := s.sortedPages()
	e.U32(uint32(len(pages)))
	for _, p := range pages {
		e.Addr(p)
		e.U64(s.PageVersion[p])
		e.NodeID(s.Owner[p])
		e.NodeIDs(s.Copyset[p])
	}
	e.U64(s.PubEpoch)
	e.NodeIDs(s.Homes)
	e.U64(s.HomeEpoch)
}

// DecodeRegionState reads a state encoded by EncodeTo.
func DecodeRegionState(d *enc.Decoder) RegionState {
	s := newRegionState()
	n := int(d.U32())
	for i := 0; i < n; i++ {
		p := d.Addr()
		v := d.U64()
		o := d.NodeID()
		cs := d.NodeIDs()
		if d.Err() != nil {
			return s
		}
		s.PageVersion[p] = v
		s.Owner[p] = o
		if cs != nil {
			s.Copyset[p] = cs
		}
	}
	s.PubEpoch = d.U64()
	s.Homes = d.NodeIDs()
	s.HomeEpoch = d.U64()
	return s
}
