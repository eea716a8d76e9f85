package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"khazana/internal/ktypes"
	"khazana/internal/telemetry"
	"khazana/internal/transport"
	"khazana/internal/wire"
)

// SpanKind says which boundary a span was recorded at.
type SpanKind uint8

const (
	// SpanOp is one client operation, recorded by the workload loop
	// around its public-API calls.
	SpanOp SpanKind = iota + 1
	// SpanRequest is one outbound Transport.Request, caller side.
	SpanRequest
	// SpanHandler is one inbound Handler call, callee side.
	SpanHandler
)

func (k SpanKind) String() string {
	switch k {
	case SpanOp:
		return "op"
	case SpanRequest:
		return "request"
	case SpanHandler:
		return "handler"
	}
	return "invalid"
}

// Span is one recorded interval. IDs are 1-based positions in the
// tracer's buffer, so parents resolve by index. The struct holds no
// pointers: a full buffer costs the collector nothing to scan.
type Span struct {
	// Parent is the span that caused this one, 0 when the context carried
	// none (background traffic, or a handler reached over TCP, which
	// Analyze matches to its request by interval containment).
	Parent uint64
	// Op is the client operation the span belongs to, 0 when unknown.
	Op uint64
	// Start and End are nanoseconds since the tracer's epoch; End stays 0
	// for a span still open when the trace was read.
	Start, End int64
	// Node recorded the span; Peer is the other end of a request.
	Node, Peer uint32
	Kind       SpanKind
	// Class is the op class for SpanOp and the wire kind otherwise.
	Class uint16
}

func (s *Span) dur() int64 { return s.End - s.Start }

// spanRef is what the context key carries: the enclosing span and the
// client operation it serves.
type spanRef struct{ span, op uint64 }

type traceCtxKey struct{}

// Tracer keeps spans in memory until the benchmark ends. It starts
// disabled; a disabled tracer records nothing and its transports forward
// every call untouched.
type Tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []Span
	// dropped counts spans lost because the buffer was full.
	dropped int64
	// kinds names each wire kind seen, indexed by kind, for the dump.
	kinds []string
}

// NewTracer allocates a tracer whose buffer holds capacity spans.
func NewTracer(capacity int) *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]Span, 0, capacity)}
}

// Enable switches recording on or off.
func (t *Tracer) Enable(on bool) { t.on.Store(on) }

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.on.Load() }

// Full reports whether the buffer has no room left; the traced phase ends
// early rather than record a truncated trace.
func (t *Tracer) Full() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) == cap(t.spans)
}

// Spans returns a copy of the finished spans, and how many were dropped.
// Indexes (hence IDs) are preserved: unfinished spans stay in place with
// End == 0.
func (t *Tracer) Spans() ([]Span, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...), t.dropped
}

// begin opens a span; m is the wire message of a request or handler span
// and nil for an op span. The clock is read under the mutex, so that spans
// are recorded in start order, which Analyze's containment search relies on.
func (t *Tracer) begin(s Span, m wire.Msg) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Start = int64(time.Since(t.epoch))
	if m != nil {
		for int(s.Class) >= len(t.kinds) {
			t.kinds = append(t.kinds, "")
		}
		if t.kinds[s.Class] == "" {
			t.kinds[s.Class] = strings.TrimPrefix(fmt.Sprintf("%T", m), "*wire.")
		}
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, s)
	id := uint64(len(t.spans))
	if s.Kind == SpanOp {
		t.spans[id-1].Op = id
	}
	return id
}

func (t *Tracer) end(id uint64) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// startOp opens a client-operation span on node and returns its ID with a
// context that makes every request issued under it a child; end closes it.
func (t *Tracer) startOp(ctx context.Context, node ktypes.NodeID, class OpClass) (context.Context, uint64) {
	id := t.begin(Span{Kind: SpanOp, Node: uint32(node), Class: uint16(class)}, nil)
	return context.WithValue(ctx, traceCtxKey{}, spanRef{span: id, op: id}), id
}

// TracedTransport decorates a transport.Transport: it records a span
// around every outbound Request and every inbound Handler call, and hands
// the handler a context whose key names the handler span, so requests the
// handler issues become its children. Over the in-process network the
// caller's context reaches the remote handler, which links handler to
// request directly; over TCP it does not, and Analyze links them by
// interval containment instead.
type TracedTransport struct {
	inner transport.Transport
	t     *Tracer
}

var (
	_ transport.Transport       = (*TracedTransport)(nil)
	_ transport.TelemetrySetter = (*TracedTransport)(nil)
)

// Wrap returns inner decorated with t's span recording.
func (t *Tracer) Wrap(inner transport.Transport) *TracedTransport {
	return &TracedTransport{inner: inner, t: t}
}

// Self implements transport.Transport.
func (tt *TracedTransport) Self() ktypes.NodeID { return tt.inner.Self() }

// Close implements transport.Transport.
func (tt *TracedTransport) Close() error { return tt.inner.Close() }

// SetTelemetry forwards the node's registry to the wrapped transport, so a
// decorated endpoint stays as instrumented as a bare one.
func (tt *TracedTransport) SetTelemetry(reg *telemetry.Registry) {
	if ts, ok := tt.inner.(transport.TelemetrySetter); ok {
		ts.SetTelemetry(reg)
	}
}

// Request implements transport.Transport.
func (tt *TracedTransport) Request(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	if !tt.t.Enabled() {
		return tt.inner.Request(ctx, to, m)
	}
	parent, _ := ctx.Value(traceCtxKey{}).(spanRef)
	id := tt.t.begin(Span{
		Kind: SpanRequest, Parent: parent.span, Op: parent.op,
		Node: uint32(tt.inner.Self()), Peer: uint32(to), Class: uint16(m.Kind()),
	}, m)
	resp, err := tt.inner.Request(context.WithValue(ctx, traceCtxKey{}, spanRef{span: id, op: parent.op}), to, m)
	tt.t.end(id)
	return resp, err
}

// SetHandler implements transport.Transport.
func (tt *TracedTransport) SetHandler(h transport.Handler) {
	self := uint32(tt.inner.Self())
	tt.inner.SetHandler(func(ctx context.Context, from ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
		if !tt.t.Enabled() {
			return h(ctx, from, m)
		}
		parent, _ := ctx.Value(traceCtxKey{}).(spanRef)
		id := tt.t.begin(Span{
			Kind: SpanHandler, Parent: parent.span, Op: parent.op,
			Node: self, Peer: uint32(from), Class: uint16(m.Kind()),
		}, m)
		resp, err := h(context.WithValue(ctx, traceCtxKey{}, spanRef{span: id, op: parent.op}), from, m)
		tt.t.end(id)
		return resp, err
	})
}

// spanJSON is one line of a trace dump.
type spanJSON struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Op      uint64 `json:"op,omitempty"`
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	Node    uint32 `json:"node"`
	Peer    uint32 `json:"peer,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// WriteSpans dumps the finished spans of spans (as returned by Spans, and
// usually passed through Analyze, which completes the TCP parent links) as
// JSON lines, one span per line, in recording order, which is start order.
func (t *Tracer) WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		s := &spans[i]
		if s.End == 0 {
			continue
		}
		if err := enc.Encode(spanJSON{
			ID: uint64(i + 1), Parent: s.Parent, Op: s.Op, Kind: s.Kind.String(), Name: t.spanName(s),
			Node: s.Node, Peer: s.Peer, StartNS: s.Start, EndNS: s.End,
		}); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func (t *Tracer) spanName(s *Span) string {
	if s.Kind == SpanOp {
		return OpClass(s.Class).String()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kinds[s.Class]
}
