package bench

import (
	"sort"

	"khazana/internal/wire"
)

// rpcClass groups wire kinds by the protocol step they carry, for the
// per-class request timings.
type rpcClass int

const (
	rpcOther rpcClass = iota
	rpcGrant
	rpcRelease
	rpcUpdate
	rpcInvalidate
	rpcRepl
	rpcLookup
	numRPCClasses
)

func classOf(k wire.Kind) rpcClass {
	switch k {
	case wire.KindPageReq, wire.KindPageReqBatch, wire.KindPageFetch:
		return rpcGrant
	case wire.KindReleaseNotify, wire.KindReleaseBatch:
		return rpcRelease
	case wire.KindUpdatePush, wire.KindUpdateBatch, wire.KindReplicaPut:
		return rpcUpdate
	case wire.KindInvalidate:
		return rpcInvalidate
	case wire.KindReplAppend, wire.KindReplPromote:
		return rpcRepl
	case wire.KindRegionLookup, wire.KindRingLookup, wire.KindClusterQuery:
		return rpcLookup
	}
	return rpcOther
}

// TraceStats is what a trace says about where operation time went. Times
// are nanosecond totals over every traced operation.
type TraceStats struct {
	// Ops counts op spans; OpNS is their summed duration.
	Ops  int64
	OpNS int64
	// Requests counts finished request spans, background ones included.
	Requests int64
	// Background counts request spans no operation was waiting for: the
	// context carried no parent, or the request outlived its operation (an
	// announce cast off the caller's path).
	Background int64
	// ClientSelfNS is op time not covered by the op's requests: the client
	// library itself. TransportSelfNS is request time not covered by the
	// remote handler: marshal, unmarshal, queueing and the link or socket.
	// HandlerSelfNS is handler time not covered by the requests the handler
	// issued. Along a chain of blocking calls the three add up to OpNS;
	// parallel requests under one parent are each counted in full.
	ClientSelfNS, TransportSelfNS, HandlerSelfNS int64
	// RequestNS is the summed duration of the requests operations waited
	// for, nested ones included.
	RequestNS int64
	// ClassN and ClassNS count and time every finished request by class.
	ClassN, ClassNS [numRPCClasses]int64
}

// Analyze attributes the spans of one traced phase. spans is modified:
// handlers reached over TCP get their Parent filled in, and every span an
// operation waited for gets that operation's Op.
func Analyze(spans []Span) TraceStats {
	linkByContainment(spans)

	children := make([][]int32, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.End == 0 || s.Parent == 0 || s.Parent > uint64(len(spans)) {
			continue
		}
		children[s.Parent-1] = append(children[s.Parent-1], int32(i))
	}

	var st TraceStats
	// self adds span i's self time to its layer and recurses; it returns
	// nothing because a child's cost to its parent is its whole interval.
	var self func(i int32)
	self = func(i int32) {
		s := &spans[i]
		covered := make([]interval, 0, len(children[i]))
		for _, c := range children[i] {
			ch := &spans[c]
			if s.Kind == SpanOp && ch.End > s.End {
				continue // background: nobody waited for it
			}
			covered = append(covered, interval{ch.Start, ch.End})
			ch.Op = s.Op
			self(c)
		}
		own := s.dur() - unionLen(covered, s.Start, s.End)
		switch s.Kind {
		case SpanOp:
			st.ClientSelfNS += own
		case SpanRequest:
			st.TransportSelfNS += own
			st.RequestNS += s.dur()
		case SpanHandler:
			st.HandlerSelfNS += own
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.End == 0 {
			continue
		}
		switch s.Kind {
		case SpanOp:
			st.Ops++
			st.OpNS += s.dur()
			self(int32(i))
		case SpanRequest:
			st.Requests++
			c := classOf(wire.Kind(s.Class))
			st.ClassN[c]++
			st.ClassNS[c] += s.dur()
			if s.Parent == 0 || s.Parent > uint64(len(spans)) {
				st.Background++
			} else if p := &spans[s.Parent-1]; p.Kind == SpanOp && p.End != 0 && s.End > p.End {
				st.Background++
			}
		}
	}
	return st
}

// linkByContainment gives every parentless handler span the request it
// served. Over TCP the caller's context does not reach the handler, but
// both ends run in this process on one monotonic clock, so the handler's
// interval lies inside its request's: among the requests of the same kind
// between the same two nodes that contain it, the handler belongs to the
// latest-started one not already taken. Two overlapping same-kind requests
// between one pair could swap handlers; totals per layer are unaffected.
func linkByContainment(spans []Span) {
	type key struct {
		from, to uint32
		class    uint16
	}
	byKey := make(map[key][]int32)
	for i := range spans {
		s := &spans[i]
		if s.Kind == SpanRequest && s.End != 0 {
			k := key{s.Node, s.Peer, s.Class}
			byKey[k] = append(byKey[k], int32(i)) // recording order is start order
		}
	}
	taken := make(map[int32]bool)
	for i := range spans {
		h := &spans[i]
		if h.Kind != SpanHandler || h.Parent != 0 || h.End == 0 {
			continue
		}
		reqs := byKey[key{h.Peer, h.Node, h.Class}]
		// First request that starts after the handler; candidates precede it.
		j := sort.Search(len(reqs), func(j int) bool { return spans[reqs[j]].Start > h.Start })
		// In-flight requests of one kind between one pair are few; a handler
		// with no match that close (its request was dropped from a full
		// buffer) stays parentless rather than scanning the whole trace.
		for stop := j - 64; j > 0 && j > stop; {
			j--
			r := &spans[reqs[j]]
			if r.End >= h.End && !taken[reqs[j]] {
				taken[reqs[j]] = true
				h.Parent, h.Op = uint64(reqs[j])+1, r.Op
				break
			}
		}
	}
}
