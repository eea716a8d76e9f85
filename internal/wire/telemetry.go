package wire

import (
	"encoding/binary"
	"errors"

	"khazana/internal/enc"
	"khazana/internal/ktypes"
)

// Telemetry traffic: the generic name/value statistics exchange behind
// `khazctl stats` and `khazctl trace`, and the optional trace envelope the
// transports wrap around requests that carry a span context.
//
// Unlike the fixed-field StatsResp (kept for compatibility), StatsReply
// carries the full metrics registry by name, so new instruments reach
// operators without another wire change.

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

// StatsReply carries a daemon's metrics registry snapshot and, on
// request, its recorded trace spans.
type StatsReply struct {
	Node     ktypes.NodeID
	Counters []NamedCounter
	Gauges   []NamedGauge
	Hists    []HistStat
	Spans    []SpanStat
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
}

// Traced is the optional trace envelope. When a request context carries a
// span context, the transport wraps the message in a Traced envelope; the
// receiving transport unwraps it and hands the handler a context carrying
// the sender's trace and span IDs. Messages sent without a span context
// are never wrapped, so their encoding is byte-identical to the
// pre-telemetry format (the frame fuzzers prove this).
//
// On the wire the envelope is the trace and span IDs, then the inner
// message's own Marshal bytes behind a 32-bit length. encode writes them in
// place and patches the length; decode decodes Inner eagerly, so a decoded
// envelope never aliases the transport buffer it came from.
type Traced struct {
	Trace uint64
	Span  uint64
	// Inner is the wrapped message. It is never itself a Traced.
	Inner Msg
}

// Kind implements Msg.
func (*Traced) Kind() Kind { return KindTraced }

func (m *Traced) encode(e *enc.Encoder) {
	e.U64(m.Trace)
	e.U64(m.Span)
	at := e.Reserve32()
	e.U16(uint16(m.Inner.Kind()))
	m.Inner.encode(e)
	e.Patch32(at)
}

func (m *Traced) decode(d *enc.Decoder) {
	m.Trace = d.U64()
	m.Span = d.U64()
	body := d.View32()
	if d.Err() != nil {
		return
	}
	// An envelope inside an envelope is never sent; refusing it bounds
	// the decode recursion on hostile input.
	if len(body) >= 2 && Kind(binary.LittleEndian.Uint16(body)) == KindTraced {
		d.Fail(errors.New("wire: nested trace envelope"))
		return
	}
	inner, err := Unmarshal(body)
	if err != nil {
		d.Fail(err)
		return
	}
	m.Inner = inner
}

// ReleaseFrames implements FrameCarrier for the wrapped message.
func (m *Traced) ReleaseFrames() {
	if m != nil {
		Recycle(m.Inner)
	}
}
