package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"khazana/internal/ktypes"
	"khazana/internal/wire"
)

// Multiplexed framing. A mux client opens the stream with a preamble:
//
//	preamble: [u32 muxMagic][u8 version][u32 from-node]
//
// muxMagic exceeds maxFrame, so it can never be mistaken for a frame
// length: the server checks it before reading anything else and closes a
// connection that opens with anything different. After the preamble both
// directions carry length-prefixed frames tagged with a u32 request ID:
//
//	request:  [u32 length][u32 reqID][payload...]
//	response: [u32 length][u32 reqID][u8 status][payload-or-error...]
//
// where length counts everything after itself. Many requests ride one
// connection concurrently: a single writer goroutine serializes outbound
// frames, a demux reader dispatches responses to waiting callers by ID,
// and the server runs one handler goroutine per inbound frame instead of
// one request at a time. Connection count is therefore decoupled from
// in-flight request count — the property that lets one daemon absorb
// thousands of clients without thousands of sockets.
const (
	// muxMagic is "KZMX" read little-endian; 0x584d5a4b > maxFrame.
	muxMagic = 0x584d5a4b
	// muxVersion is the mux protocol revision sent in the preamble.
	muxVersion = 1
	// muxPreambleLen is the preamble size in bytes.
	muxPreambleLen = 9
	// defaultConnsPerPeer is how many shared mux connections carry
	// traffic to each peer unless WithConnsPerPeer overrides it.
	defaultConnsPerPeer = 2
	// muxWriteQueue bounds frames queued behind a connection's writer
	// goroutine before senders block (backpressure, not an error).
	muxWriteQueue = 256
	// muxCoalesceBytes caps how much queued traffic one writev gathers.
	muxCoalesceBytes = 256 << 10
	// muxReadBufSize is the demux reader's buffer: one read syscall
	// drains many small response frames under fan-in.
	muxReadBufSize = 64 << 10
	// muxHandlerWorkers is how many resident handler goroutines each
	// inbound mux connection keeps warm. Spawning a goroutine per frame
	// pays a stack-growth tax on every request; resident workers keep
	// their grown stacks across requests. When all workers are busy (or
	// blocked inside a handler) the demux loop overflows to a fresh
	// goroutine, so handler concurrency is never capped — the pool is an
	// optimization, not a semantic limit.
	muxHandlerWorkers = 64
)

// frameWriter batches a connection's outbound frames: each flush writes
// the triggering frame plus everything already queued behind it in one
// writev-backed call. Under fan-in this is the mux protocol's syscall
// advantage: hundreds of concurrent requests ride one write. bufs, the
// writev's view of scratch, lives here so a flush allocates nothing.
type frameWriter struct {
	conn    net.Conn
	ch      <-chan *[]byte
	held    []*[]byte
	scratch [][]byte
	bufs    net.Buffers
}

// flush writes first plus any immediately available queued frames,
// recycling every buffer, and returns the bytes written.
func (w *frameWriter) flush(first *[]byte) (int, error) {
	w.held = append(w.held[:0], first)
	w.scratch = append(w.scratch[:0], *first)
	total := len(*first)
drain:
	for total < muxCoalesceBytes {
		select {
		case bp := <-w.ch:
			w.held = append(w.held, bp)
			w.scratch = append(w.scratch, *bp)
			total += len(*bp)
		default:
			break drain
		}
	}
	w.bufs = w.scratch
	_, err := w.bufs.WriteTo(w.conn)
	for _, bp := range w.held {
		putFrameBuf(bp)
	}
	return total, err
}

// muxResult carries a demuxed response to its waiting caller.
type muxResult struct {
	msg wire.Msg
	err error
}

// pendShards spreads a connection's pending-request table: with
// thousands of callers multiplexed onto one socket, a single map mutex
// is the hottest lock in the client; sharding by request ID keeps
// registration, delivery, and abandonment mostly contention-free.
const pendShards = 8

// pendShard is one slice of a connection's pending-request table. m is
// set to nil exactly once, when the connection fails — a tombstone every
// accessor recognizes.
type pendShard struct {
	mu sync.Mutex
	m  map[uint32]chan muxResult
}

// muxConn is one multiplexed client connection to a peer. It is shared
// by every goroutine issuing requests to that peer.
type muxConn struct {
	t    *TCP
	peer ktypes.NodeID
	slot int
	conn net.Conn

	// writeCh feeds the writer goroutine length-prefixed frames; stop is
	// closed exactly once when the connection dies, releasing every
	// sender blocked on writeCh.
	writeCh chan *[]byte
	stop    chan struct{}

	mu  sync.Mutex
	err error // set before stop closes; nil while the conn is live

	pend [pendShards]pendShard
}

func newMuxConn(t *TCP, peer ktypes.NodeID, slot int, conn net.Conn) *muxConn {
	mc := &muxConn{
		t:       t,
		peer:    peer,
		slot:    slot,
		conn:    conn,
		writeCh: make(chan *[]byte, muxWriteQueue),
		stop:    make(chan struct{}),
	}
	for i := range mc.pend {
		mc.pend[i].m = make(map[uint32]chan muxResult)
	}
	return mc
}

// failErr returns the error the connection died with.
func (mc *muxConn) failErr() error {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.err
}

// dead reports whether the connection has failed.
func (mc *muxConn) dead() bool {
	select {
	case <-mc.stop:
		return true
	default:
		return false
	}
}

// fail tears the connection down exactly once: marks it dead, closes the
// socket, unregisters it from the transport, and delivers err to every
// in-flight caller. stop closes before any shard is detached — that
// ordering is what lets registration check liveness under only its
// shard's lock (see roundTrip). Each shard map is detached under its
// lock and the sends happen after release; each channel is buffered
// (capacity 1) and owned by exactly one waiter, so the sends cannot
// block.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.err != nil {
		mc.mu.Unlock()
		return
	}
	mc.err = err
	close(mc.stop)
	mc.mu.Unlock()
	var pend []chan muxResult
	for i := range mc.pend {
		s := &mc.pend[i]
		s.mu.Lock()
		for _, ch := range s.m {
			pend = append(pend, ch)
		}
		s.m = nil
		s.mu.Unlock()
	}
	_ = mc.conn.Close()
	mc.t.muxConnDied(mc)
	for _, ch := range pend {
		ch <- muxResult{err: err}
	}
}

// muxResultPool recycles the buffered result channels roundTrip waits
// on; at fan-in rates a fresh channel per request is measurable
// allocator pressure. A channel returns to the pool only on paths where
// no late send can reach it (see abandon).
var muxResultPool = sync.Pool{New: func() any { return make(chan muxResult, 1) }}

// roundTrip sends m tagged with a fresh request ID and waits for the
// demux reader to deliver the matching response.
//
// Registration holds only the ID's shard lock, so the liveness check is
// the stop channel rather than mc.err: fail() closes stop strictly
// before it detaches any shard, so if dead() is false under the shard
// lock, fail() cannot detach this shard until we release it — our entry
// is guaranteed to be seen and failed.
func (mc *muxConn) roundTrip(ctx context.Context, m wire.Msg) (wire.Msg, error) {
	id := mc.t.muxSeq.Add(1)
	ch := muxResultPool.Get().(chan muxResult)
	s := &mc.pend[id%pendShards]
	s.mu.Lock()
	if mc.dead() || s.m == nil {
		s.mu.Unlock()
		muxResultPool.Put(ch)
		if err := mc.failErr(); err != nil {
			return nil, err
		}
		return nil, ErrUnreachable
	}
	s.m[id] = ch
	s.mu.Unlock()

	// Marshal directly into a pooled buffer after the 8-byte mux header —
	// no intermediate payload allocation. The buffer (possibly grown by
	// the append) goes back to the pool once written. Traced requests
	// gain an envelope.
	wp := marshalRequest(ctx, 8, m)
	binary.LittleEndian.PutUint32((*wp)[0:4], uint32(len(*wp)-4))
	binary.LittleEndian.PutUint32((*wp)[4:8], id)

	select {
	case mc.writeCh <- wp:
	case <-mc.stop:
		// fail() has delivered (or is about to deliver) the error to ch;
		// fall through to the receive below.
		putFrameBuf(wp)
	case <-ctx.Done():
		putFrameBuf(wp)
		if mc.abandon(id, ch) {
			muxResultPool.Put(ch)
		}
		return nil, ctx.Err()
	}

	select {
	case res := <-ch:
		muxResultPool.Put(ch)
		return res.msg, res.err
	case <-ctx.Done():
		if mc.abandon(id, ch) {
			muxResultPool.Put(ch)
		}
		return nil, ctx.Err()
	}
}

// abandon withdraws a pending request on context cancellation. Deleting
// the entry under the lock closes the race with the demux reader: either
// the reader already delivered (the buffered result is drained and its
// frames recycled here), or it never will. It reports whether ch is safe
// to pool: when the connection has already failed (pending detached),
// fail() may still deliver its error to ch at any later point, so the
// channel must be abandoned to the garbage collector rather than reused.
func (mc *muxConn) abandon(id uint32, ch chan muxResult) bool {
	s := &mc.pend[id%pendShards]
	s.mu.Lock()
	failed := s.m == nil
	if !failed {
		delete(s.m, id)
	}
	s.mu.Unlock()
	select {
	case res := <-ch:
		wire.Recycle(res.msg)
	default:
	}
	return !failed
}

// writeLoop is the connection's single writer: it owns the outbound side
// of the socket and serializes — and coalesces — frames from every
// concurrent caller.
func (mc *muxConn) writeLoop() {
	tm := mc.t.metrics()
	w := frameWriter{conn: mc.conn, ch: mc.writeCh}
	for {
		select {
		case bp := <-mc.writeCh:
			n, err := w.flush(bp)
			if err != nil {
				mc.fail(fmt.Errorf("transport: mux write: %w", err))
				mc.drainWrites()
				return
			}
			tm.bytesOut.Add(uint64(n))
		case <-mc.stop:
			mc.drainWrites()
			return
		}
	}
}

// drainWrites recycles frames queued behind a dead connection. Their
// senders do not wait on the write itself — fail() already delivered
// their error through the pending map.
func (mc *muxConn) drainWrites() {
	for {
		select {
		case bp := <-mc.writeCh:
			putFrameBuf(bp)
		default:
			return
		}
	}
}

// readLoop is the demux reader: it decodes tagged response frames and
// hands each to the caller registered under its request ID.
func (mc *muxConn) readLoop() {
	tm := mc.t.metrics()
	br := bufio.NewReaderSize(mc.conn, muxReadBufSize)
	for {
		bp, err := readFrame(br)
		if err != nil {
			mc.fail(fmt.Errorf("transport: mux read: %w", err))
			return
		}
		tm.bytesIn.Add(uint64(len(*bp)) + 4)
		frame := *bp
		if len(frame) < 5 {
			putFrameBuf(bp)
			mc.fail(fmt.Errorf("transport: short mux response frame (%d bytes)", len(frame)))
			return
		}
		id := binary.LittleEndian.Uint32(frame[0:4])
		var res muxResult
		switch frame[4] {
		case tcpStatusOK:
			res.msg, res.err = wire.Unmarshal(frame[5:])
		case tcpStatusErr:
			res.err = &RemoteError{Msg: string(frame[5:])}
		default:
			res.err = fmt.Errorf("transport: bad response status %d", frame[4])
		}
		putFrameBuf(bp)
		s := &mc.pend[id%pendShards]
		s.mu.Lock()
		ch, ok := s.m[id]
		if ok {
			delete(s.m, id)
			// Delivering under the shard lock pairs with abandon(): once
			// a caller has withdrawn, no send can follow its delete, so
			// page frames in res can never leak. The send cannot block:
			// the channel has capacity 1 and claiming the map entry made
			// this goroutine its only sender.
			ch <- res //khazana:block-ok buffered cap-1 channel, sole sender after claiming the pending entry
		}
		s.mu.Unlock()
		if !ok {
			// The caller gave up before the reply arrived; drop it.
			wire.Recycle(res.msg)
		}
	}
}

// muxConnFor returns a live shared connection to the peer, dialing one
// if the chosen slot is empty or dead. Slots are picked round-robin so
// traffic spreads across connsPerPeer connections.
func (t *TCP) muxConnFor(ctx context.Context, to ktypes.NodeID) (*muxConn, error) {
	t.mmu.Lock()
	slots := t.muxConns[to]
	if slots == nil {
		slots = make([]*muxConn, t.connsPerPeer)
		t.muxConns[to] = slots
	}
	slot := int(t.muxPick.Add(1)) % len(slots)
	mc := slots[slot]
	t.mmu.Unlock()
	if mc != nil && !mc.dead() {
		return mc, nil
	}
	// Dial outside the lock; when two requests race for an empty slot
	// the first to install wins and the loser's connection is discarded.
	conn, err := t.dial(ctx, to)
	if err != nil {
		return nil, err
	}
	var pre [muxPreambleLen]byte
	binary.LittleEndian.PutUint32(pre[0:4], muxMagic)
	pre[4] = muxVersion
	binary.LittleEndian.PutUint32(pre[5:9], uint32(t.self))
	if _, err := conn.Write(pre[:]); err != nil {
		t.closeConn(conn)
		return nil, fmt.Errorf("transport: mux preamble: %w", err)
	}
	t.metrics().bytesOut.Add(muxPreambleLen)
	nc := newMuxConn(t, to, slot, conn)
	t.mmu.Lock()
	select {
	case <-t.closed:
		t.mmu.Unlock()
		nc.fail(ErrClosed)
		return nil, ErrClosed
	default:
	}
	if cur := t.muxConns[to][slot]; cur != nil && !cur.dead() {
		t.mmu.Unlock()
		nc.fail(ErrUnreachable) // never observed: no request was issued on nc
		return cur, nil
	}
	t.muxConns[to][slot] = nc
	t.mmu.Unlock()
	go nc.writeLoop()
	go nc.readLoop()
	return nc, nil
}

// muxConnDied unregisters a dead connection so the next request on its
// slot dials fresh, and drops it from the conns-open gauge.
func (t *TCP) muxConnDied(mc *muxConn) {
	t.mmu.Lock()
	if slots := t.muxConns[mc.peer]; mc.slot < len(slots) && slots[mc.slot] == mc {
		slots[mc.slot] = nil
	}
	t.mmu.Unlock()
	t.metrics().connsOpen.Add(-1)
}

// muxRequest sends m over one of the peer's shared mux connections. A
// connection that died around the send is retried once on a fresh dial,
// unless the failure was remote-side or the context's.
func (t *TCP) muxRequest(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		mc, err := t.muxConnFor(ctx, to)
		if err != nil {
			return nil, err
		}
		resp, err := mc.roundTrip(ctx, m)
		if err == nil {
			return resp, nil
		}
		if _, remote := err.(*RemoteError); remote || ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// serveMux serves one multiplexed inbound connection. The magic word has
// already been consumed by serveConn; read the rest of the preamble,
// then demux: one handler goroutine per inbound frame, all
// responses funneled through a single writer goroutine so concurrent
// handlers cannot interleave partial frames.
func (t *TCP) serveMux(conn net.Conn) {
	br := bufio.NewReaderSize(conn, muxReadBufSize)
	var pre [muxPreambleLen - 4]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return
	}
	if pre[0] != muxVersion {
		return
	}
	from := ktypes.NodeID(binary.LittleEndian.Uint32(pre[1:5]))
	tm := t.metrics()
	tm.bytesIn.Add(muxPreambleLen)

	out := make(chan *[]byte, muxWriteQueue)
	done := make(chan struct{})
	defer close(done)
	t.wg.Add(1)
	go func() { // response writer: sole owner of conn's outbound side
		defer t.wg.Done()
		w := frameWriter{conn: conn, ch: out}
		for {
			select {
			case bp := <-out:
				n, err := w.flush(bp)
				if err != nil {
					// Tear the connection down: the demux loop unblocks
					// with a read error and the handlers drain via done.
					_ = conn.Close()
					return
				}
				tm.bytesOut.Add(uint64(n))
			case <-done:
				return
			}
		}
	}()

	// Resident handler workers: an unbuffered channel hands a frame
	// directly to an idle worker; if none is receiving — all busy or
	// blocked — the demux loop spawns an overflow goroutine instead, so
	// a wedged handler can never stall the frames (e.g. a release) that
	// would unwedge it. An overflow goroutine joins the resident pool
	// after its frame (up to muxHandlerWorkers), so the pool grows to
	// the connection's real concurrency and warm stacks get reused
	// instead of paying goroutine-spawn and stack-growth per frame.
	work := make(chan muxWork)
	var resident atomic.Int32
	overflow := func(w muxWork) {
		defer t.wg.Done()
		t.handleMux(from, w.id, w.req, out, done)
		if resident.Add(1) > muxHandlerWorkers {
			resident.Add(-1)
			return
		}
		defer resident.Add(-1)
		for {
			select {
			case w := <-work:
				t.handleMux(from, w.id, w.req, out, done)
			case <-done:
				return
			}
		}
	}

	for {
		select {
		case <-t.closed:
			return
		default:
		}
		bp, err := readFrame(br)
		if err != nil {
			return
		}
		tm.bytesIn.Add(uint64(len(*bp)) + 4)
		frame := *bp
		if len(frame) < 4 {
			putFrameBuf(bp)
			return
		}
		id := binary.LittleEndian.Uint32(frame[0:4])
		req, err := decodeRequest(frame[4:])
		putFrameBuf(bp)
		if err != nil {
			// Framing survived but the payload is garbage: report it on
			// this request ID and keep serving the connection.
			muxSend(muxErrFrame(id, err), out, done)
			continue
		}
		select {
		case work <- muxWork{id: id, req: req}:
		default:
			t.wg.Add(1)
			go overflow(muxWork{id: id, req: req})
			// Let the new handler (and any drained workers) run before
			// reading further ahead of them; TCP flow control holds the
			// backlog meanwhile.
			runtime.Gosched()
		}
	}
}

// muxWork is one inbound frame awaiting a handler worker.
type muxWork struct {
	id  uint32
	req request
}

// handleMux runs one inbound frame's handler — on a resident worker or
// an overflow goroutine, so the demux loop keeps reading while handlers
// work — and queues the tagged response.
func (t *TCP) handleMux(from ktypes.NodeID, id uint32, req request, out chan *[]byte, done chan struct{}) {
	rp, err := serve(context.Background(), t.getHandler(), t.metrics(), from, req, 9)
	if err != nil {
		muxSend(muxErrFrame(id, err), out, done)
		return
	}
	buf := *rp
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-4))
	binary.LittleEndian.PutUint32(buf[4:8], id)
	buf[8] = tcpStatusOK
	muxSend(rp, out, done)
}

// muxErrFrame encodes a tagged error response into a pooled buffer.
func muxErrFrame(id uint32, err error) *[]byte {
	emsg := err.Error()
	rp := getFrameBuf(9 + len(emsg))
	buf := *rp
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(emsg)+5))
	binary.LittleEndian.PutUint32(buf[4:8], id)
	buf[8] = tcpStatusErr
	copy(buf[9:], emsg)
	return rp
}

// muxSend queues a response frame for the connection's writer, dropping
// it if the connection has already shut down. The send applies
// backpressure when the writer falls behind; a dead connection cannot
// wedge handlers because serveMux closes done on the way out.
func muxSend(rp *[]byte, out chan *[]byte, done chan struct{}) {
	select {
	case out <- rp:
	case <-done:
		putFrameBuf(rp)
	}
}
