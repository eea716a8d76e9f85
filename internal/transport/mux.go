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
// where length counts everything after itself. Request ID 0, which the
// allocator never issues, marks a one-way request (wire.OneWay): no
// response, and its caller waits only until it is written. Many requests
// ride one connection concurrently: each direction's frames go out
// through a combining writer (frameWriter) on their senders' goroutines,
// a demux reader dispatches responses to waiting callers by ID, and the
// server runs one handler goroutine per inbound frame instead of one
// request at a time. Connection count is therefore decoupled from
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

// outFrame is a frame queued behind a write in progress; a one-way
// request's sender waits on written (capacity 1) for the write's outcome.
type outFrame struct {
	bp      *[]byte
	written chan muxResult
}

// done recycles the frame's buffer and reports err to a waiting sender.
func (f outFrame) done(err error) {
	putFrameBuf(f.bp)
	if f.written != nil {
		f.written <- muxResult{err: err} //khazana:block-ok buffered cap-1 channel, one send per frame
	}
}

// frameWriter is one connection's combining writer. A sender that finds
// no write in progress writes its own frame on its own goroutine, then
// every frame other senders queued meanwhile, coalesced into writevs of
// up to muxCoalesceBytes, and returns once the queue is empty. A sender
// that finds a write in progress queues its frame for that writer. Under
// fan-in many requests ride one write with no hand-off to a writer
// goroutine. Only writing, err and the queue sit under mu; the socket is
// written outside it. The first failed write makes err sticky, fails
// every queued frame and calls fail once; later frames fail at once.
type frameWriter struct {
	t    *TCP
	conn net.Conn
	fail func(error)

	mu      sync.Mutex
	writing bool
	err     error
	queue   []outFrame

	// Owned by the sender that set writing: the frames it is writing and
	// the writev's view of them, kept here so a write allocates nothing.
	held    []outFrame
	scratch [][]byte
	bufs    net.Buffers

	writes, frames atomic.Uint64 // socket writes made and frames they carried
}

// write sends bp, a length-prefixed frame, on the caller's goroutine, or
// queues it behind the write in progress. For a one-way frame it returns
// the pooled channel a queued frame's outcome arrives on, or nil when the
// caller wrote the frame itself; err is then that write's outcome. A
// round trip ignores both: a failed write fails the connection, which
// delivers the error to every pending request.
func (w *frameWriter) write(bp *[]byte, oneWay bool) (written chan muxResult, err error) {
	w.mu.Lock()
	if err := w.err; err != nil {
		w.mu.Unlock()
		putFrameBuf(bp)
		return nil, err
	}
	if w.writing {
		if oneWay {
			written = muxResultPool.Get().(chan muxResult)
		}
		w.queue = append(w.queue, outFrame{bp, written})
		w.mu.Unlock()
		return written, nil
	}
	w.writing = true
	w.mu.Unlock()
	w.held = append(w.held[:0], outFrame{bp: bp})
	err = w.flush()
	for werr := err; ; werr = w.flush() {
		w.mu.Lock()
		w.err = werr
		w.held, w.queue = w.queue, w.held[:0]
		w.writing = werr == nil && len(w.held) > 0
		more := w.writing
		w.mu.Unlock()
		if more {
			continue
		}
		if werr != nil {
			for _, f := range w.held {
				f.done(werr)
			}
			w.fail(werr)
		}
		return nil, err
	}
}

// flush writes held, up to muxCoalesceBytes per writev, finishing each
// frame with its write's outcome, and returns the first error; frames
// after a failed write are not written.
func (w *frameWriter) flush() error {
	var err error
	for i := 0; i < len(w.held); {
		w.scratch = w.scratch[:0]
		total, j := 0, i
		for ; j < len(w.held) && total < muxCoalesceBytes; j++ {
			w.scratch = append(w.scratch, *w.held[j].bp)
			total += len(*w.held[j].bp)
		}
		if err == nil {
			w.bufs = w.scratch
			if _, err = w.bufs.WriteTo(w.conn); err == nil {
				w.t.metrics().bytesOut.Add(uint64(total))
			}
			w.writes.Add(1)
			w.frames.Add(uint64(j - i))
		}
		for ; i < j; i++ {
			w.held[i].done(err)
		}
	}
	return err
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

	// w writes the connection's outbound frames; stop is closed exactly
	// once when the connection dies.
	w    frameWriter
	stop chan struct{}

	mu  sync.Mutex
	err error // set before stop closes; nil while the conn is live

	pend [pendShards]pendShard
}

func newMuxConn(t *TCP, peer ktypes.NodeID, slot int, conn net.Conn) *muxConn {
	mc := &muxConn{t: t, peer: peer, slot: slot, conn: conn, stop: make(chan struct{})}
	mc.w = frameWriter{t: t, conn: conn, fail: func(err error) {
		mc.fail(fmt.Errorf("transport: mux write: %w", err))
	}}
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

// muxResultPool recycles the buffered result channels roundTrip and send
// wait on; at fan-in rates a fresh channel per request is measurable
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
	if wire.OneWay(m) {
		return nil, mc.send(ctx, m)
	}
	id := mc.t.muxSeq.Add(1)
	if id == 0 { // 0 marks a one-way frame
		id = mc.t.muxSeq.Add(1)
	}
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

	// A write that fails fails the connection, and fail() delivers the
	// error to ch: the receive below sees it.
	mc.w.write(wp, false) //khazana:ignore-err the failure reaches ch through fail()
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

// send writes a one-way frame (request ID 0) and returns once it is
// written, with the write's error; nothing waits for the peer's handler.
func (mc *muxConn) send(ctx context.Context, m wire.Msg) error {
	if mc.dead() {
		return mc.failErr()
	}
	bp := marshalRequest(ctx, 8, m)
	binary.LittleEndian.PutUint32((*bp)[0:4], uint32(len(*bp)-4))
	binary.LittleEndian.PutUint32((*bp)[4:8], 0)
	written, err := mc.w.write(bp, true)
	if written == nil {
		return err
	}
	select {
	case res := <-written:
		muxResultPool.Put(written)
		return res.err
	case <-ctx.Done():
		return ctx.Err() // the writer may still report: not pooled
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
// then demux: one handler goroutine per inbound frame, each writing its
// response through the connection's frameWriter so concurrent handlers
// cannot interleave partial frames.
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

	w := &frameWriter{t: t, conn: conn, fail: func(error) {
		// The demux loop unblocks with a read error and the handlers
		// drain via done.
		_ = conn.Close()
	}}
	done := make(chan struct{})
	defer close(done)

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
	overflow := func(mw muxWork) {
		defer t.wg.Done()
		t.handleMux(from, mw.id, mw.req, w)
		if resident.Add(1) > muxHandlerWorkers {
			resident.Add(-1)
			return
		}
		defer resident.Add(-1)
		for {
			select {
			case mw := <-work:
				t.handleMux(from, mw.id, mw.req, w)
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
			w.write(muxErrFrame(id, err), false) //khazana:ignore-err a failed write closes the connection
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
// work — and writes the tagged response, unless the frame is one-way.
func (t *TCP) handleMux(from ktypes.NodeID, id uint32, req request, w *frameWriter) {
	rp, err := serve(context.Background(), t.getHandler(), t.metrics(), from, req, 9, id == 0)
	if id == 0 {
		return
	}
	if err != nil {
		rp = muxErrFrame(id, err)
	} else {
		buf := *rp
		binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-4))
		binary.LittleEndian.PutUint32(buf[4:8], id)
		buf[8] = tcpStatusOK
	}
	w.write(rp, false) //khazana:ignore-err a failed write closes the connection
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
