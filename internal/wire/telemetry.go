package wire

import (
	"encoding/binary"
	"fmt"

	"khazana/internal/enc"
	"khazana/internal/ktypes"
)

// Telemetry traffic: the generic name/value statistics exchange behind
// `khazctl stats` and `khazctl trace`, and the optional trace envelope the
// transports wrap around requests that carry a span context.
//
// StatsReply carries the full metrics registry by name, so new instruments
// reach operators without another wire change.

// StatsQuery asks a daemon for its full telemetry snapshot.
type StatsQuery struct {
	// IncludeSpans requests the node's recorded trace spans too.
	IncludeSpans bool
}

// Kind implements Msg.
func (*StatsQuery) Kind() Kind              { return KindStatsQuery }
func (m *StatsQuery) encode(e *enc.Encoder) { e.Bool(m.IncludeSpans) }
func (m *StatsQuery) decode(d *enc.Decoder) { m.IncludeSpans = d.Bool() }

// NamedCounter is one counter in a StatsReply.
type NamedCounter struct {
	Name  string
	Value uint64
}

// NamedGauge is one gauge in a StatsReply.
type NamedGauge struct {
	Name  string
	Value int64
}

// HistStat is one histogram in a StatsReply. Buckets are power-of-two:
// bucket i counts observations below 2^i (see telemetry.BucketBound),
// trimmed after the last non-empty bucket.
type HistStat struct {
	Name    string
	Count   uint64
	Sum     uint64
	Buckets []uint64
}

// SpanStat is one recorded trace span in a StatsReply.
type SpanStat struct {
	Trace         uint64
	Span          uint64
	Parent        uint64
	Node          ktypes.NodeID
	Name          string
	StartUnixNano int64
	DurationNs    int64
}

// StatsReply carries a daemon's metrics registry snapshot, its membership
// view and, on request, its recorded trace spans.
type StatsReply struct {
	Node     ktypes.NodeID
	Counters []NamedCounter
	Gauges   []NamedGauge
	Hists    []HistStat
	Spans    []SpanStat
	Members  []ktypes.NodeID
}

// Kind implements Msg.
func (*StatsReply) Kind() Kind { return KindStatsReply }

func (m *StatsReply) encode(e *enc.Encoder) {
	e.NodeID(m.Node)
	e.U16(uint16(len(m.Counters)))
	for _, c := range m.Counters {
		e.String(c.Name)
		e.U64(c.Value)
	}
	e.U16(uint16(len(m.Gauges)))
	for _, g := range m.Gauges {
		e.String(g.Name)
		e.I64(g.Value)
	}
	e.U16(uint16(len(m.Hists)))
	for _, h := range m.Hists {
		e.String(h.Name)
		e.U64(h.Count)
		e.U64(h.Sum)
		e.U16(uint16(len(h.Buckets)))
		for _, b := range h.Buckets {
			e.U64(b)
		}
	}
	e.U16(uint16(len(m.Spans)))
	for _, s := range m.Spans {
		e.U64(s.Trace)
		e.U64(s.Span)
		e.U64(s.Parent)
		e.NodeID(s.Node)
		e.String(s.Name)
		e.I64(s.StartUnixNano)
		e.I64(s.DurationNs)
	}
	e.NodeIDs(m.Members)
}

func (m *StatsReply) decode(d *enc.Decoder) {
	m.Node = d.NodeID()
	if n := int(d.U16()); n > 0 && d.Err() == nil {
		m.Counters = make([]NamedCounter, n)
		for i := range m.Counters {
			m.Counters[i].Name = d.String()
			m.Counters[i].Value = d.U64()
		}
	}
	if n := int(d.U16()); n > 0 && d.Err() == nil {
		m.Gauges = make([]NamedGauge, n)
		for i := range m.Gauges {
			m.Gauges[i].Name = d.String()
			m.Gauges[i].Value = d.I64()
		}
	}
	if n := int(d.U16()); n > 0 && d.Err() == nil {
		m.Hists = make([]HistStat, n)
		for i := range m.Hists {
			m.Hists[i].Name = d.String()
			m.Hists[i].Count = d.U64()
			m.Hists[i].Sum = d.U64()
			if bn := int(d.U16()); bn > 0 && d.Err() == nil {
				m.Hists[i].Buckets = make([]uint64, bn)
				for j := range m.Hists[i].Buckets {
					m.Hists[i].Buckets[j] = d.U64()
				}
			}
		}
	}
	if n := int(d.U16()); n > 0 && d.Err() == nil {
		m.Spans = make([]SpanStat, n)
		for i := range m.Spans {
			m.Spans[i].Trace = d.U64()
			m.Spans[i].Span = d.U64()
			m.Spans[i].Parent = d.U64()
			m.Spans[i].Node = d.NodeID()
			m.Spans[i].Name = d.String()
			m.Spans[i].StartUnixNano = d.I64()
			m.Spans[i].DurationNs = d.I64()
		}
	}
	m.Members = d.NodeIDs()
}

// The trace envelope is optional. When a request context carries a span
// context, the transport encodes the request with AppendTraced; the
// receiver's UnmarshalRequest hands back the inner message and the sender's
// trace and span IDs. The envelope is never a message of its own. Requests
// sent without a span context are never wrapped, so their encoding is
// byte-identical to the pre-telemetry format (the frame fuzzers prove it).
//
// On the wire the envelope is KindTraced, the trace and span IDs, then the
// inner message's own Marshal bytes behind a 32-bit length.

// AppendTraced appends m inside a trace envelope carrying trace and span
// to dst, encoding m in place and patching its length.
func AppendTraced(dst []byte, trace, span uint64, m Msg) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(KindTraced))
	dst = binary.LittleEndian.AppendUint64(dst, trace)
	dst = binary.LittleEndian.AppendUint64(dst, span)
	at := len(dst)
	dst = MarshalAppend(append(dst, 0, 0, 0, 0), m)
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// UnmarshalRequest parses an inbound request: a message Unmarshal accepts,
// or one inside a trace envelope, whose inner message and IDs it returns
// with traced set. The inner message is decoded eagerly, so it never
// aliases b. Unmarshal rejects KindTraced, so an envelope inside an
// envelope — never sent — fails without recursing on hostile input.
func UnmarshalRequest(b []byte) (m Msg, trace, span uint64, traced bool, err error) {
	if len(b) < 2 || Kind(binary.LittleEndian.Uint16(b)) != KindTraced {
		m, err = Unmarshal(b)
		return m, 0, 0, false, err
	}
	d := enc.NewDecoder(b[2:])
	trace, span = d.U64(), d.U64()
	body := d.View32()
	if err := d.Finish(); err != nil {
		return nil, 0, 0, false, fmt.Errorf("wire: decode trace envelope: %w", err)
	}
	if m, err = Unmarshal(body); err != nil {
		return nil, 0, 0, false, err
	}
	return m, trace, span, true, nil
}
