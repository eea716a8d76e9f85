package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"khazana/internal/frame"
	"khazana/internal/ktypes"
	"khazana/internal/telemetry"
	"khazana/internal/wire"
)

// errBadNodeID rejects attaching the nil node ID.
var errBadNodeID = errors.New("transport: invalid node ID 0")

// Network is an in-process simulated network connecting Khazana daemons in
// one address space. It substitutes for the paper's LAN/WAN testbed:
// per-link latency models slow WAN links (§1: "some or all of the nodes
// may be connected via slow or intermittent WAN links"), and partitions
// and crashes drive the failure-handling experiments (§3.5).
//
// Every request is encoded and decoded at the destination as over TCP,
// except that page payloads cross by reference, uncopied (see parcel).
type Network struct {
	mu        sync.RWMutex
	nodes     map[ktypes.NodeID]*inprocEndpoint
	baseDelay time.Duration
	linkDelay map[linkKey]time.Duration
	cut       map[linkKey]bool
	crashed   map[ktypes.NodeID]bool

	requests atomic.Uint64
	bytes    atomic.Uint64
}

type linkKey struct{ a, b ktypes.NodeID }

func link(a, b ktypes.NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a: a, b: b}
}

// NewNetwork creates an empty simulated network with zero base latency.
func NewNetwork() *Network {
	return &Network{
		nodes:     make(map[ktypes.NodeID]*inprocEndpoint),
		linkDelay: make(map[linkKey]time.Duration),
		cut:       make(map[linkKey]bool),
		crashed:   make(map[ktypes.NodeID]bool),
	}
}

// SetBaseLatency sets the default one-way latency applied to every
// message.
func (n *Network) SetBaseLatency(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.baseDelay = d
}

// SetLinkLatency overrides the one-way latency between a specific pair.
func (n *Network) SetLinkLatency(a, b ktypes.NodeID, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkDelay[link(a, b)] = d
}

// Partition cuts the link between a and b in both directions.
func (n *Network) Partition(a, b ktypes.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[link(a, b)] = true
}

// Heal restores the link between a and b.
func (n *Network) Heal(a, b ktypes.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, link(a, b))
}

// Isolate cuts every link touching id.
func (n *Network) Isolate(id ktypes.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for other := range n.nodes {
		if other != id {
			n.cut[link(id, other)] = true
		}
	}
}

// HealAll removes all partitions.
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut = make(map[linkKey]bool)
}

// Crash makes a node unreachable and unable to send, simulating a process
// failure. The node's handler stops receiving requests.
func (n *Network) Crash(id ktypes.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
}

// Restart clears a node's crashed state.
func (n *Network) Restart(id ktypes.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
}

// Crashed reports whether a node is currently crashed.
func (n *Network) Crashed(id ktypes.NodeID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.crashed[id]
}

// Stats returns the cumulative request count and payload bytes moved.
func (n *Network) Stats() (requests, bytes uint64) {
	return n.requests.Load(), n.bytes.Load()
}

// Attach creates a transport endpoint for node id.
func (n *Network) Attach(id ktypes.NodeID) (Transport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if id == ktypes.NilNode {
		return nil, errBadNodeID
	}
	if _, ok := n.nodes[id]; ok {
		return nil, fmt.Errorf("transport: node %v already attached", id)
	}
	ep := &inprocEndpoint{net: n, id: id}
	ep.tm.Store(&transportMetrics{})
	n.nodes[id] = ep
	return ep, nil
}

// Detach removes a node from the network entirely.
func (n *Network) Detach(id ktypes.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, id)
}

// route resolves delivery parameters for a message from -> to.
func (n *Network) route(from, to ktypes.NodeID) (*inprocEndpoint, time.Duration, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.crashed[from] || n.crashed[to] {
		return nil, 0, ErrUnreachable
	}
	if n.cut[link(from, to)] {
		return nil, 0, ErrUnreachable
	}
	ep, ok := n.nodes[to]
	if !ok {
		return nil, 0, ErrUnreachable
	}
	d, ok := n.linkDelay[link(from, to)]
	if !ok {
		d = n.baseDelay
	}
	return ep, d, nil
}

// inprocEndpoint is one node's attachment to the simulated network. Its
// concurrency model matches the mux TCP transport: every Request runs on
// its caller's goroutine and the destination handler is invoked directly,
// so any number of requests are in flight to a peer at once — exactly what
// a shared mux connection provides — and unit tests over inproc exercise
// the same interleavings.
type inprocEndpoint struct {
	net    *Network
	id     ktypes.NodeID
	closed atomic.Bool
	tm     atomic.Pointer[transportMetrics]

	hmu     sync.RWMutex
	handler Handler
}

var _ Transport = (*inprocEndpoint)(nil)

// Self implements Transport.
func (ep *inprocEndpoint) Self() ktypes.NodeID { return ep.id }

// SetTelemetry points the endpoint's instruments at reg; core.NewNode
// injects its registry here just as for the TCP transport.
func (ep *inprocEndpoint) SetTelemetry(reg *telemetry.Registry) {
	ep.tm.Store(newTransportMetrics(reg))
}

func (ep *inprocEndpoint) metrics() *transportMetrics { return ep.tm.Load() }

// SetHandler implements Transport.
func (ep *inprocEndpoint) SetHandler(h Handler) {
	ep.hmu.Lock()
	defer ep.hmu.Unlock()
	ep.handler = h
}

func (ep *inprocEndpoint) getHandler() Handler {
	ep.hmu.RLock()
	defer ep.hmu.RUnlock()
	return ep.handler
}

// Close implements Transport.
func (ep *inprocEndpoint) Close() error {
	ep.closed.Store(true)
	ep.net.Detach(ep.id)
	return nil
}

// Request implements Transport. The message is encoded into a parcel,
// carried across the simulated link (sleeping the link latency each way),
// decoded, and dispatched to the destination handler; the response comes
// back the same way in the same parcel, whose buffer returns to the pool
// right after each decode. A one-way message gets no response: as over
// TCP, a route error is returned and the handler's is not.
func (ep *inprocEndpoint) Request(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	if ep.closed.Load() {
		return nil, ErrClosed
	}
	dst, delay, err := ep.net.route(ep.id, to)
	if err != nil {
		return nil, err
	}
	if dst.closed.Load() {
		return nil, ErrUnreachable
	}
	tm, dtm := ep.metrics(), dst.metrics()
	tm.inflight.Add(1)
	defer tm.inflight.Add(-1)

	oneWay := wire.OneWay(m)
	p := parcels.Get().(*parcel) // the request's, then the response's
	defer parcels.Put(p)
	p.bp = marshalRequest(ctx, 0, &p.frames, m)
	inbound, n, err := ep.carry(ctx, to, delay, p)
	ep.net.requests.Add(1)
	ep.net.bytes.Add(n)
	tm.bytesOut.Add(n)
	dtm.bytesIn.Add(n)
	if err != nil {
		return nil, err
	}
	p.bp, err = serve(ctx, dst.getHandler(), dtm, ep.id, inbound, 0, oneWay, &p.frames)
	if oneWay {
		return nil, nil
	}
	if err == ErrNoHandler {
		return nil, err
	}
	if err != nil {
		return nil, &RemoteError{Msg: err.Error()}
	}
	resp, n, err := ep.carry(ctx, to, delay, p)
	ep.net.bytes.Add(n)
	dtm.bytesOut.Add(n)
	tm.bytesIn.Add(n)
	return resp.msg, err
}

// parcel is one message crossing the inproc link: its encoding in bp, and
// its page payloads as frames (wire.MarshalFrames), one reference each
// until the receiver's decode takes it over.
type parcel struct {
	bp     *[]byte
	frames []*frame.Frame
}

var parcels = sync.Pool{New: func() any { return new(parcel) }}

// reset empties p for its next message: its buffer goes back to the
// pool, and any frame no decode took is released.
func (p *parcel) reset() {
	putFrameBuf(p.bp)
	p.bp = nil
	for i, f := range p.frames {
		if f != nil {
			f.Release()
		}
		p.frames[i] = nil
	}
	p.frames = p.frames[:0]
}

// carry moves one parcel across the link to or from peer: it sleeps the
// flight time, re-checks reachability (a partition or crash that happened
// while the message was in flight loses it), decodes, and resets the
// parcel. n is the message's encoded size, payloads included.
// Responses are never traced, so their callers take only m.msg.
func (ep *inprocEndpoint) carry(ctx context.Context, peer ktypes.NodeID, delay time.Duration, p *parcel) (m request, n uint64, err error) {
	defer p.reset()
	n = uint64(len(*p.bp) + frame.TotalLen(&p.frames))
	if err := sleepCtx(ctx, delay); err != nil {
		return m, n, err
	}
	if _, _, err := ep.net.route(ep.id, peer); err != nil {
		return m, n, err
	}
	m, err = decodeRequest(*p.bp, p.frames)
	return m, n, err
}

// sleepCtx sleeps for d unless the context is canceled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
