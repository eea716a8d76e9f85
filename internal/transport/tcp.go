package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"khazana/internal/ktypes"
	"khazana/internal/telemetry"
	"khazana/internal/wire"
)

// Response status bytes of the multiplexed framing (mux.go): status 0
// carries a marshaled wire.Msg; status 1 carries an error string produced
// by the remote handler.
const (
	tcpStatusOK  = 0
	tcpStatusErr = 1
	// maxFrame bounds a frame to guard against corrupt length prefixes.
	maxFrame = 1 << 26
)

// TCP is a socket transport for standalone Khazana daemons. Peers are
// registered with AddPeer. Requests are multiplexed: a small fixed set of
// shared connections per peer carries any number of concurrent in-flight
// requests (mux.go).
type TCP struct {
	self ktypes.NodeID
	ln   net.Listener

	connsPerPeer int

	hmu     sync.RWMutex
	handler Handler

	pmu   sync.RWMutex
	peers map[ktypes.NodeID]string

	cmu    sync.Mutex
	served map[net.Conn]struct{}

	mmu      sync.Mutex
	muxConns map[ktypes.NodeID][]*muxConn
	muxSeq   atomic.Uint32
	muxPick  atomic.Uint32

	tm atomic.Pointer[transportMetrics]

	wg     sync.WaitGroup
	closed chan struct{}
}

var _ Transport = (*TCP)(nil)

// TCPOption configures a TCP transport at construction.
type TCPOption func(*TCP)

// WithConnsPerPeer sets how many shared mux connections fan requests out
// to each peer (default 2). More connections add socket-level
// parallelism; in-flight request concurrency is unbounded either way.
func WithConnsPerPeer(n int) TCPOption {
	return func(t *TCP) {
		if n > 0 {
			t.connsPerPeer = n
		}
	}
}

// NewTCP starts a TCP endpoint for node self listening on listenAddr
// (e.g. "127.0.0.1:0").
func NewTCP(self ktypes.NodeID, listenAddr string, opts ...TCPOption) (*TCP, error) {
	if self == ktypes.NilNode {
		return nil, errBadNodeID
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	t := &TCP{
		self:         self,
		ln:           ln,
		connsPerPeer: defaultConnsPerPeer,
		peers:        make(map[ktypes.NodeID]string),
		served:       make(map[net.Conn]struct{}),
		muxConns:     make(map[ktypes.NodeID][]*muxConn),
		closed:       make(chan struct{}),
	}
	t.tm.Store(&transportMetrics{})
	for _, opt := range opts {
		opt(t)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Self implements Transport.
func (t *TCP) Self() ktypes.NodeID { return t.self }

// Addr returns the transport's bound listen address.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// SetTelemetry points the transport's instruments at reg. core.NewNode
// injects its registry here; safe to call while traffic is flowing, and
// a nil registry yields no-op instruments.
func (t *TCP) SetTelemetry(reg *telemetry.Registry) {
	t.tm.Store(newTransportMetrics(reg))
}

func (t *TCP) metrics() *transportMetrics { return t.tm.Load() }

// SetHandler implements Transport.
func (t *TCP) SetHandler(h Handler) {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	t.handler = h
}

func (t *TCP) getHandler() Handler {
	t.hmu.RLock()
	defer t.hmu.RUnlock()
	return t.handler
}

// AddPeer registers the listen address of a peer node.
func (t *TCP) AddPeer(id ktypes.NodeID, addr string) {
	t.pmu.Lock()
	defer t.pmu.Unlock()
	t.peers[id] = addr
}

// PeerAddr returns a peer's registered address.
func (t *TCP) PeerAddr(id ktypes.NodeID) (string, bool) {
	t.pmu.RLock()
	defer t.pmu.RUnlock()
	a, ok := t.peers[id]
	return a, ok
}

// Close implements Transport.
func (t *TCP) Close() error {
	select {
	case <-t.closed:
		return nil
	default:
	}
	close(t.closed)
	err := t.ln.Close()
	t.cmu.Lock()
	for c := range t.served {
		_ = c.Close()
	}
	t.cmu.Unlock()
	t.mmu.Lock()
	var mcs []*muxConn
	for _, slots := range t.muxConns {
		for _, mc := range slots {
			if mc != nil {
				mcs = append(mcs, mc)
			}
		}
	}
	t.muxConns = make(map[ktypes.NodeID][]*muxConn)
	t.mmu.Unlock()
	for _, mc := range mcs {
		mc.fail(ErrClosed)
	}
	t.wg.Wait()
	return err
}

// Request implements Transport.
func (t *TCP) Request(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	select {
	case <-t.closed:
		return nil, ErrClosed
	default:
	}
	tm := t.metrics()
	tm.inflight.Add(1)
	defer tm.inflight.Add(-1)
	return t.muxRequest(ctx, to, m)
}

func (t *TCP) dial(ctx context.Context, to ktypes.NodeID) (net.Conn, error) {
	addr, ok := t.PeerAddr(to)
	if !ok {
		return nil, ErrUnreachable
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %v: %v", ErrUnreachable, to, err)
	}
	t.metrics().connsOpen.Add(1)
	return conn, nil
}

// closeConn closes a client-side dialed connection and drops it from the
// open-connections gauge. Every connection returned by dial must pass
// through exactly one closeConn (mux connections route here via fail).
func (t *TCP) closeConn(conn net.Conn) {
	_ = conn.Close()
	t.metrics().connsOpen.Add(-1)
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.metrics().connsOpen.Add(1)
		t.cmu.Lock()
		t.served[conn] = struct{}{}
		t.cmu.Unlock()
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

// serveConn validates the connection's first four bytes and serves it.
// Anything that does not lead with muxMagic — a port scanner, or a peer
// still speaking the retired length-prefixed serial framing — is closed
// without a reply.
func (t *TCP) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.cmu.Lock()
		delete(t.served, conn)
		t.cmu.Unlock()
		t.closeConn(conn)
	}()
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return
	}
	if binary.LittleEndian.Uint32(hdr[:]) == muxMagic {
		t.serveMux(conn)
	}
}

// readFrame reads one length-prefixed frame into a pooled buffer,
// bounds-checking the prefix first. The caller must release the buffer
// with putFrameBuf once finished with the slice; messages decoded from it
// may be retained because the decoder moves payloads into their own
// pooled frames.
func readFrame(r *bufio.Reader) (*[]byte, error) {
	lenBuf, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf)
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("transport: bad frame length %d", n)
	}
	r.Discard(4) //khazana:ignore-err Peek(4) succeeded, so four bytes are buffered
	bp := getFrameBuf(int(n))
	if _, err := io.ReadFull(r, *bp); err != nil {
		putFrameBuf(bp)
		return nil, err
	}
	return bp, nil
}
