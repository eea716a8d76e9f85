// Package transport moves wire messages between Khazana daemons.
//
// Two implementations are provided. Network is an in-process simulated
// network with configurable latency, link partitions, and node crashes; it
// still marshals every message through the wire format so protocol code is
// exercised identically to a real deployment. TCP is a real socket
// transport with length-prefixed frames, used by the standalone daemon.
//
// The paper notes that only the messaging layer of Khazana is system
// dependent (§5); this package is that layer.
package transport

import (
	"context"
	"errors"
	"sync"

	"khazana/internal/ktypes"
	"khazana/internal/telemetry"
	"khazana/internal/wire"
)

// Handler processes one inbound request and produces a response.
type Handler func(ctx context.Context, from ktypes.NodeID, m wire.Msg) (wire.Msg, error)

// Transport sends requests to peers and delivers inbound requests to a
// handler.
type Transport interface {
	// Self returns this endpoint's node ID.
	Self() ktypes.NodeID
	// Request sends m to the peer and waits for its response. A one-way
	// message (wire.OneWay) gets none: Request returns (nil, nil) once m
	// is handed to the link, an error only if it could not be, and the
	// peer's handler error is never seen here.
	Request(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error)
	// SetHandler installs the inbound request handler. It must be called
	// before the first request arrives.
	SetHandler(h Handler)
	// Close releases the endpoint.
	Close() error
	// A wrapper that embeds a Transport forwards SetTelemetry with it.
	TelemetrySetter
}

// Errors shared by transport implementations.
var (
	// ErrUnreachable reports that the destination cannot be contacted:
	// unknown, crashed, or partitioned away.
	ErrUnreachable = errors.New("transport: peer unreachable")
	// ErrClosed reports use of a closed transport.
	ErrClosed = errors.New("transport: closed")
	// ErrNoHandler reports a request delivered before SetHandler.
	ErrNoHandler = errors.New("transport: no handler installed")
)

// RemoteError carries an error string returned by a peer's handler.
type RemoteError struct {
	Msg string
}

// Error implements the error interface.
func (e *RemoteError) Error() string { return "transport: remote: " + e.Msg }

// maxPooledFrame caps the buffers kept in frameBufs; anything larger (a
// batch grant can reach megabytes) is returned to the allocator so one
// giant transfer does not pin memory for the process's life.
const maxPooledFrame = 4 << 20

// frameBufs recycles the buffers both transports marshal into and decode
// from. Pooling is safe because a decoded wire.Msg never aliases the
// buffer it came from: enc's Decoder moves byte and string fields out of
// the input (page payloads land in their own pooled refcounted frames) and
// a trace envelope decodes its inner message eagerly. Entries are *[]byte
// so Put does not allocate.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

func getFrameBuf(n int) *[]byte {
	bp := frameBufs.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putFrameBuf(bp *[]byte) {
	if cap(*bp) > maxPooledFrame {
		return
	}
	frameBufs.Put(bp)
}

// marshalPooled encodes m into a pooled buffer behind hdr bytes of header
// the caller fills in. The buffer goes back with putFrameBuf once sent.
func marshalPooled(hdr int, m wire.Msg) *[]byte {
	bp := getFrameBuf(hdr)
	*bp = wire.MarshalAppend(*bp, m)
	return bp
}

// marshalRequest is marshalPooled inside a trace envelope when ctx carries
// a span context; untraced requests keep the pre-telemetry wire format.
func marshalRequest(ctx context.Context, hdr int, m wire.Msg) *[]byte {
	sc, ok := telemetry.FromContext(ctx)
	if !ok {
		return marshalPooled(hdr, m)
	}
	bp := getFrameBuf(hdr)
	*bp = wire.AppendTraced(*bp, uint64(sc.Trace), uint64(sc.Span), m)
	return bp
}

// request is an inbound message and its trace envelope's span context.
type request struct {
	msg    wire.Msg
	sc     telemetry.SpanContext
	traced bool
}

// decodeRequest decodes an inbound payload, unwrapping a trace envelope.
func decodeRequest(b []byte) (request, error) {
	m, trace, span, traced, err := wire.UnmarshalRequest(b)
	return request{m, telemetry.SpanContext{Trace: telemetry.TraceID(trace), Span: telemetry.SpanID(span)}, traced}, err
}

// serve runs one inbound request through h and marshals the response into
// a pooled buffer behind hdr bytes of header: the dispatch step both
// transports share, so that on every path the frames the request and the
// response hold are released by the time it returns — after the response
// is serialized, as it may alias the inbound message's frame. A traced
// request's handler context carries the sender's span context, so the
// handler's spans join the caller's trace. A nil h yields ErrNoHandler;
// any other error is the handler's. A one-way request gets no response
// buffer.
func serve(ctx context.Context, h Handler, tm *transportMetrics, from ktypes.NodeID, req request, hdr int, oneWay bool) (*[]byte, error) {
	defer wire.Recycle(req.msg)
	if req.traced {
		ctx = telemetry.ContextWith(ctx, req.sc)
	}
	if h == nil {
		return nil, ErrNoHandler
	}
	tm.inflight.Add(1)
	resp, err := h(ctx, from, req.msg)
	tm.inflight.Add(-1)
	if err != nil || oneWay {
		wire.Recycle(resp)
		return nil, err
	}
	defer wire.Recycle(resp)
	return marshalPooled(hdr, resp), nil
}

// TelemetrySetter points a transport's metrics (open connections,
// in-flight requests, frame bytes) at a telemetry registry. Every
// Transport is one: core.NewNode injects the node's registry, so
// transports built before the node exists still end up instrumented.
type TelemetrySetter interface {
	SetTelemetry(reg *telemetry.Registry)
}

// transportMetrics bundles the per-transport instruments. The zero value
// carries nil instruments, which are valid no-ops, so hot paths never
// branch on whether telemetry is enabled.
type transportMetrics struct {
	connsOpen *telemetry.Gauge
	inflight  *telemetry.Gauge
	bytesIn   *telemetry.Counter
	bytesOut  *telemetry.Counter
}

func newTransportMetrics(reg *telemetry.Registry) *transportMetrics {
	return &transportMetrics{
		connsOpen: reg.Gauge(telemetry.MetricTransportConnsOpen),
		inflight:  reg.Gauge(telemetry.MetricTransportInflight),
		bytesIn:   reg.Counter(telemetry.MetricTransportBytesIn),
		bytesOut:  reg.Counter(telemetry.MetricTransportBytesOut),
	}
}
