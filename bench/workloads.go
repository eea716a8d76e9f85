package bench

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"khazana"
)

// OpClass names what a client operation did; latencies and op spans are
// kept per class.
type OpClass uint16

const (
	OpRead OpClass = iota + 1
	OpWrite
	OpCreate
	OpColdOpen
	OpUnreserve
	numOpClasses
)

func (c OpClass) String() string {
	switch c {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCreate:
		return "create"
	case OpColdOpen:
		return "cold_open"
	case OpUnreserve:
		return "unreserve"
	}
	return "invalid"
}

// Workload names, fixed: later issues cite them.
const (
	CachedRead      = "cached_read"
	RemoteScan      = "remote_scan"
	WriteReplicated = "write_replicated"
	TCPMixed        = "tcp_mixed"
	RegionChurn     = "region_churn"
)

// WorkloadSpec names a workload and says why it exists.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workloads lists every workload.
var Workloads = []WorkloadSpec{
	{CachedRead, "one client re-reads a resident region on its home node: lock shards, lock table and mem tier only, zero RPCs; the bypass workload for data-path, transport and replog changes"},
	{RemoteScan, "a consumer scans 64 KB grant batches a producer keeps invalidating: wire encode/decode, inproc marshal, frame pool, CREW grant and read-ahead, store puts"},
	{WriteReplicated, "8-page writes to a MinReplicas-3 region from a non-home node: release path, replog quorum append, one update batch per replica"},
	{TCPMixed, "two clients, 90/10 read/write over loopback TCP mux against one home: real sockets, writev coalescing, demux, worker pool, two lock-shard users"},
	{RegionChurn, "create, cold-open from a third node, destroy: address map, ring announce and one-hop lookup, cluster; no data path after warm-up"},
}

// stampLen is the size of a page stamp: generation then page number, both
// little-endian uint64. A page holds the stamp repeated end to end, so any
// torn or stale byte range shows as a stamp that disagrees with the head.
const stampLen = 16

var errMismatch = errors.New("bench: page stamp mismatch")

func fillPage(buf []byte, gen, pageNo uint64) {
	binary.LittleEndian.PutUint64(buf[0:8], gen)
	binary.LittleEndian.PutUint64(buf[8:16], pageNo)
	for n := stampLen; n < len(buf); n *= 2 {
		copy(buf[n:], buf[:n])
	}
}

// checkPage verifies a page read under a lock. Every read checks the head
// and tail stamps; full also checks each repetition in between (the
// end-of-run pass). floor is the newest generation acknowledged for the
// page before the lock was requested: CREW must return that or a later
// one, and exactly that when exact (single-writer workloads).
func checkPage(view []byte, pageNo, floor uint64, exact, full bool) bool {
	if len(view) != pageSize {
		return false
	}
	gen := binary.LittleEndian.Uint64(view[0:8])
	if binary.LittleEndian.Uint64(view[8:16]) != pageNo {
		return false
	}
	if gen < floor || (exact && gen != floor) {
		return false
	}
	step := pageSize - stampLen
	if full {
		step = stampLen
	}
	for off := step; off < pageSize; off += step {
		if binary.LittleEndian.Uint64(view[off:off+8]) != gen ||
			binary.LittleEndian.Uint64(view[off+8:off+16]) != pageNo {
			return false
		}
	}
	return true
}

// mismatchError says what a page that failed checkPage held.
func mismatchError(view []byte, node *khazana.Node, pageNo, floor uint64) error {
	if len(view) != pageSize {
		return fmt.Errorf("%w: node %d page %#x: view of %d bytes", errMismatch, node.ID(), pageNo, len(view))
	}
	u := func(off int) uint64 { return binary.LittleEndian.Uint64(view[off:]) }
	tail := pageSize - stampLen
	return fmt.Errorf("%w: node %d page %#x acknowledged generation %d: head holds page %#x generation %d, tail page %#x generation %d",
		errMismatch, node.ID(), pageNo, floor, u(8), u(0), u(tail+8), u(tail))
}

// benchRegion is one region plus the generation last acknowledged for each
// of its pages (the value a later read must observe).
type benchRegion struct {
	start khazana.Addr
	pages int
	// base numbers the region's pages globally: page i is stamped base+i.
	base  uint64
	acked []atomic.Uint64
}

func (r *benchRegion) addr(page int) khazana.Addr {
	return r.start.MustAdd(uint64(page) * pageSize)
}

func (r *benchRegion) extent(first, n int) khazana.Range {
	return khazana.Range{Start: r.addr(first), Size: uint64(n) * pageSize}
}

// ack raises the page's acknowledged generation to gen (never lowers it:
// with two writers the later lock holder may acknowledge first).
func (r *benchRegion) ack(page int, gen uint64) {
	a := &r.acked[page]
	for {
		cur := a.Load()
		if cur >= gen || a.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// createRegion reserves and allocates a region on n; a detail recorder
// times the two calls.
func createRegion(ctx context.Context, r *recorder, n *khazana.Node, pages int, base uint64, attrs khazana.Attrs) (*benchRegion, error) {
	t0 := time.Now()
	start, err := n.Reserve(ctx, uint64(pages)*pageSize, attrs, principal)
	if err != nil {
		return nil, fmt.Errorf("reserve: %w", err)
	}
	t1 := time.Now()
	if err := n.Allocate(ctx, start, principal); err != nil {
		return nil, fmt.Errorf("allocate: %w", err)
	}
	if r.detail {
		r.reserveCall.record(int64(t1.Sub(t0)))
		r.allocateCall.record(int64(time.Since(t1)))
	}
	return &benchRegion{start: start, pages: pages, base: base, acked: make([]atomic.Uint64, pages)}, nil
}

// maxExtent is the largest page count one read lock covers.
const maxExtent = 16

// recorder is one client's tally for one measured window. Only its own
// client goroutine touches it while the window runs.
type recorder struct {
	tr *Tracer
	// detail times Lock, Unlock and ReadView calls on their own; only the
	// traced phase pays for the extra clock reads.
	detail bool
	// exact: reads must observe exactly the acknowledged generation.
	exact bool
	// gen is the workload's generation counter, taken while holding the
	// write lock so that generations order the way CREW orders writers.
	gen *atomic.Uint64

	ops, attempted, failed, mismatched int64
	// firstErr is the first failed operation's error, for the run's notes.
	firstErr                error
	payloadBytes, payloadNS int64
	op                      latHist
	class                   [numOpClasses]latHist

	lockCall, unlockCall, reserveCall, allocateCall latHist
	readViewNS, readViews                           int64

	buf []byte
}

func newRecorder(tr *Tracer, detail, exact bool, gen *atomic.Uint64) *recorder {
	return &recorder{tr: tr, detail: detail, exact: exact, gen: gen, buf: make([]byte, pageSize)}
}

// opTimer is one client operation in flight.
type opTimer struct {
	ctx   context.Context
	span  uint64
	class OpClass
	start time.Time
}

func (r *recorder) begin(ctx context.Context, node khazana.NodeID, class OpClass) opTimer {
	r.attempted++
	t := opTimer{ctx: ctx, class: class}
	if r.tr.Enabled() {
		t.ctx, t.span = r.tr.startOp(ctx, node, class)
	}
	t.start = time.Now()
	return t
}

// end closes the operation: err counts it failed (a stamp mismatch also as
// mismatched), payload is the user bytes it moved. It returns the latency.
func (r *recorder) end(t *opTimer, payload int64, err error) time.Duration {
	d := time.Since(t.start)
	if t.span != 0 {
		r.tr.end(t.span)
	}
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s: %w", t.class, err)
		}
		if errors.Is(err, errMismatch) {
			r.mismatched++
		}
		return d
	}
	r.class[t.class].record(int64(d))
	if payload > 0 {
		r.payloadBytes += payload
		r.payloadNS += int64(d)
	}
	return d
}

func (r *recorder) lock(ctx context.Context, n *khazana.Node, rng khazana.Range, mode khazana.LockMode) (*khazana.Lock, error) {
	if !r.detail {
		return n.Lock(ctx, rng, mode, principal)
	}
	t0 := time.Now()
	lk, err := n.Lock(ctx, rng, mode, principal)
	r.lockCall.record(int64(time.Since(t0)))
	return lk, err
}

func (r *recorder) unlock(ctx context.Context, lk *khazana.Lock) error {
	if !r.detail {
		return lk.Unlock(ctx)
	}
	t0 := time.Now()
	err := lk.Unlock(ctx)
	r.unlockCall.record(int64(time.Since(t0)))
	return err
}

// readExtent is one read op: lock n pages of reg on node, view and verify
// each, unlock.
func (r *recorder) readExtent(ctx context.Context, node *khazana.Node, reg *benchRegion, first, n int) (time.Duration, error) {
	var floors [maxExtent]uint64
	for i := 0; i < n; i++ {
		floors[i] = reg.acked[first+i].Load()
	}
	t := r.begin(ctx, node.ID(), OpRead)
	err := r.readLocked(t.ctx, node, reg, first, n, floors[:n], false)
	return r.end(&t, int64(n)*pageSize, err), err
}

func (r *recorder) readLocked(ctx context.Context, node *khazana.Node, reg *benchRegion, first, n int, floors []uint64, full bool) error {
	lk, err := r.lock(ctx, node, reg.extent(first, n), khazana.LockRead)
	if err != nil {
		return err
	}
	var t0 time.Time
	if r.detail {
		t0 = time.Now()
	}
	for i := 0; i < n; i++ {
		view, verr := lk.ReadView(reg.addr(first+i), pageSize)
		if verr != nil {
			err = verr
			break
		}
		if pageNo := reg.base + uint64(first+i); !checkPage(view, pageNo, floors[i], r.exact, full) {
			err = mismatchError(view, node, pageNo, floors[i])
			break
		}
	}
	if r.detail {
		r.readViewNS += int64(time.Since(t0))
		r.readViews += int64(n)
	}
	if uerr := r.unlock(ctx, lk); err == nil {
		err = uerr
	}
	return err
}

// writeExtent is one write op.
func (r *recorder) writeExtent(ctx context.Context, node *khazana.Node, reg *benchRegion, first, n int) (time.Duration, error) {
	t := r.begin(ctx, node.ID(), OpWrite)
	err := r.writeLocked(t.ctx, node, reg, first, n)
	return r.end(&t, int64(n)*pageSize, err), err
}

// writeLocked locks n pages of reg on node, stamps each with a fresh
// generation, unlocks, and once Unlock has returned acknowledges the
// generation, which later reads must then observe.
func (r *recorder) writeLocked(ctx context.Context, node *khazana.Node, reg *benchRegion, first, n int) error {
	lk, err := r.lock(ctx, node, reg.extent(first, n), khazana.LockWrite)
	if err != nil {
		return err
	}
	gen := r.gen.Add(1)
	for i := 0; i < n; i++ {
		fillPage(r.buf, gen, reg.base+uint64(first+i))
		if werr := lk.Write(reg.addr(first+i), r.buf); werr != nil {
			err = werr
			break
		}
	}
	if uerr := r.unlock(ctx, lk); err == nil {
		err = uerr
	}
	if err == nil {
		for i := 0; i < n; i++ {
			reg.ack(first+i, gen)
		}
	}
	return err
}

// countOp counts one workload operation (the unit of ops_per_s and
// op_p50_us) of latency d, if it completed.
func (r *recorder) countOp(d time.Duration, ok bool) {
	if ok {
		r.ops++
		r.op.record(int64(d))
	}
}

// workload is one of the five named workloads, bound to a cluster.
type workload interface {
	// spec is the cluster the workload runs on.
	spec() clusterSpec
	// clients is the number of client goroutines (at most nproc).
	clients() int
	// exact reports whether reads must see exactly the acknowledged
	// generation (single writer) rather than at least it.
	exact() bool
	// setup creates and populates the regions; it is the part of set-up,
	// with the cluster start, that setup_s times.
	setup(ctx context.Context, c *cluster, r *recorder) error
	// step runs one iteration of client i's closed loop.
	step(ctx context.Context, client int, r *recorder)
	// verify is the end-of-run correctness pass over every page.
	verify(ctx context.Context, r *recorder) error
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case CachedRead:
		return &cachedRead{rng: newKeyGen(seed, 0, cachedReadPages)}, nil
	case RemoteScan:
		return &remoteScan{}, nil
	case WriteReplicated:
		return &writeReplicated{rng: newKeyGen(seed, 0, replPages/replExtent)}, nil
	case TCPMixed:
		w := &tcpMixed{}
		for i := range w.rng {
			w.rng[i] = newKeyGen(seed, i, tcpRegions)
		}
		return w, nil
	case RegionChurn:
		return &regionChurn{}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// zipfS is the skew of every zipf-chosen key.
const zipfS = 1.1

// keyGen draws zipf-distributed keys in [0, n) through a seeded
// permutation, so which keys are hot depends on the seed.
type keyGen struct {
	r    *rand.Rand
	z    *rand.Zipf
	perm []int
}

func newKeyGen(seed int64, client, n int) *keyGen {
	r := rand.New(rand.NewSource(seed*7919 + int64(client)))
	return &keyGen{r: r, z: rand.NewZipf(r, zipfS, 1, uint64(n-1)), perm: r.Perm(n)}
}

func (k *keyGen) next() int { return k.perm[k.z.Uint64()] }

// --- cached_read -------------------------------------------------------

type cachedRead struct {
	c   *cluster
	reg *benchRegion
	rng *keyGen
}

const cachedReadPages = 1024

func (w *cachedRead) spec() clusterSpec { return clusterSpec{nodes: 2, memPages: 4096} }
func (w *cachedRead) clients() int      { return 1 }
func (w *cachedRead) exact() bool       { return true }

func (w *cachedRead) setup(ctx context.Context, c *cluster, r *recorder) error {
	w.c = c
	reg, err := createRegion(ctx, r, c.node(1), cachedReadPages, 0, khazana.Attrs{})
	if err != nil {
		return err
	}
	w.reg = reg
	return populate(ctx, c.node(1), reg, r)
}

func (w *cachedRead) step(ctx context.Context, _ int, r *recorder) {
	d, err := r.readExtent(ctx, w.c.node(1), w.reg, w.rng.next(), 1)
	r.countOp(d, err == nil)
}

func (w *cachedRead) verify(ctx context.Context, r *recorder) error {
	return verifyRegion(ctx, w.c.node(1), w.reg, r)
}

// populate stamps every page of reg through node, maxExtent pages a lock.
func populate(ctx context.Context, node *khazana.Node, reg *benchRegion, r *recorder) error {
	for first := 0; first < reg.pages; first += maxExtent {
		n := min(maxExtent, reg.pages-first)
		if err := r.writeLocked(ctx, node, reg, first, n); err != nil {
			return fmt.Errorf("populate page %d: %w", first, err)
		}
	}
	return nil
}

// verifyRegion reads every page of reg through node and checks every byte
// against the last acknowledged stamp.
func verifyRegion(ctx context.Context, node *khazana.Node, reg *benchRegion, r *recorder) error {
	var floors [maxExtent]uint64
	for first := 0; first < reg.pages; first += maxExtent {
		n := min(maxExtent, reg.pages-first)
		for i := 0; i < n; i++ {
			floors[i] = reg.acked[first+i].Load()
		}
		if err := r.readLocked(ctx, node, reg, first, n, floors[:n], true); err != nil {
			return fmt.Errorf("verify node %d pages %d..%d: %w", node.ID(), first, first+n-1, err)
		}
	}
	return nil
}

// --- remote_scan -------------------------------------------------------

type remoteScan struct {
	c   *cluster
	reg *benchRegion
}

const (
	scanPages = 256
	scanBatch = 16
)

func (w *remoteScan) spec() clusterSpec { return clusterSpec{nodes: 2, memPages: 4096} }
func (w *remoteScan) clients() int      { return 1 }
func (w *remoteScan) exact() bool       { return true }

func (w *remoteScan) setup(ctx context.Context, c *cluster, r *recorder) error {
	w.c = c
	reg, err := createRegion(ctx, r, c.node(1), scanPages, 0, khazana.Attrs{})
	if err != nil {
		return err
	}
	w.reg = reg
	return populate(ctx, c.node(1), reg, r)
}

// step is one operation: a produce/consume cycle. The producer on the home
// node publishes a new generation of the whole region under one write lock
// (invalidating the consumer's copies), then the consumer on node 2 scans
// it in 16-page batches. The publish and each batch are timed as write and
// read; the cycle is the unit of ops_per_s because its latency has one
// mode, where batch latency has two (prefetched or fetched) with the median
// on the edge between them.
func (w *remoteScan) step(ctx context.Context, _ int, r *recorder) {
	cycle := time.Now()
	failed := r.failed
	t := r.begin(ctx, 1, OpWrite)
	// The publish's bytes stay out of mb_per_s, which is the consumer's
	// bytes over the consumer's time.
	r.end(&t, 0, r.writeLocked(t.ctx, w.c.node(1), w.reg, 0, scanPages))
	for first := 0; first < scanPages; first += scanBatch {
		r.readExtent(ctx, w.c.node(2), w.reg, first, scanBatch)
	}
	r.countOp(time.Since(cycle), r.failed == failed)
}

func (w *remoteScan) verify(ctx context.Context, r *recorder) error {
	return verifyRegion(ctx, w.c.node(2), w.reg, r)
}

// --- write_replicated --------------------------------------------------

type writeReplicated struct {
	c   *cluster
	reg *benchRegion
	rng *keyGen
	// secondary is a home of the region other than the primary.
	secondary int
}

const (
	replPages  = 1024
	replExtent = 8
	replHomes  = 3
)

func (w *writeReplicated) spec() clusterSpec { return clusterSpec{nodes: 4, memPages: 4096} }
func (w *writeReplicated) clients() int      { return 1 }
func (w *writeReplicated) exact() bool       { return true }

func (w *writeReplicated) setup(ctx context.Context, c *cluster, r *recorder) error {
	w.c = c
	reg, err := createRegion(ctx, r, c.node(1), replPages, 0, khazana.Attrs{MinReplicas: replHomes})
	if err != nil {
		return err
	}
	w.reg = reg
	if err := populate(ctx, c.node(1), reg, r); err != nil {
		return err
	}
	// Background loops are off so that no timer fires mid-run; one explicit
	// maintenance round grows the home list to MinReplicas, which is what
	// engages the replicated log on every later release.
	c.node(1).Core().MaintainReplicas()
	d, err := c.node(1).GetAttr(ctx, reg.start)
	if err != nil {
		return err
	}
	if len(d.Home) != replHomes {
		return fmt.Errorf("home list %v did not reach %d homes", d.Home, replHomes)
	}
	w.secondary = int(d.Home[1])
	for _, h := range d.Home {
		if int(h) == w.client() {
			return fmt.Errorf("client node %d is a home %v", w.client(), d.Home)
		}
	}
	return nil
}

// client is the node the writer runs on: the one that is not a home.
func (w *writeReplicated) client() int { return 4 }

func (w *writeReplicated) step(ctx context.Context, _ int, r *recorder) {
	d, err := r.writeExtent(ctx, w.c.node(w.client()), w.reg, w.rng.next()*replExtent, replExtent)
	r.countOp(d, err == nil)
}

// verify reads every extent back on a secondary home: each must carry its
// last acknowledged stamp.
func (w *writeReplicated) verify(ctx context.Context, r *recorder) error {
	return verifyRegion(ctx, w.c.node(w.secondary), w.reg, r)
}

// --- tcp_mixed ---------------------------------------------------------

type tcpMixed struct {
	c    *cluster
	regs []*benchRegion
	rng  [tcpClients]*keyGen
}

const (
	tcpRegions     = 64
	tcpRegionPages = 64
	tcpReadExtent  = 4
	tcpClients     = 2
	// tcpWritePct is the share of operations that write.
	tcpWritePct = 10
)

// spec turns read-ahead off. It is the one workload where one node reads
// pages another node is writing, and there the speculative grants hand the
// reader zero-filled or stale pages (README.md, departures): with read-ahead
// on, about one run in thirty read such a page and failed.
func (w *tcpMixed) spec() clusterSpec {
	return clusterSpec{nodes: 3, memPages: 8192, tcp: true, noReadAhead: true}
}
func (w *tcpMixed) clients() int { return tcpClients }
func (w *tcpMixed) exact() bool  { return false }

func (w *tcpMixed) setup(ctx context.Context, c *cluster, r *recorder) error {
	w.c = c
	w.regs = w.regs[:0]
	for i := 0; i < tcpRegions; i++ {
		reg, err := createRegion(ctx, r, c.node(1), tcpRegionPages, uint64(i)<<32, khazana.Attrs{})
		if err != nil {
			return err
		}
		if err := populate(ctx, c.node(1), reg, r); err != nil {
			return err
		}
		w.regs = append(w.regs, reg)
	}
	return nil
}

// step is one operation of client i, which runs on node i+2: a 4-page
// read of a zipf-chosen region nine times in ten, else a 1-page write,
// which invalidates the other client's copy so its next read refetches.
func (w *tcpMixed) step(ctx context.Context, client int, r *recorder) {
	g := w.rng[client]
	reg := w.regs[g.next()]
	node := w.c.node(client + 2)
	var d time.Duration
	var err error
	if g.r.Intn(100) < tcpWritePct {
		d, err = r.writeExtent(ctx, node, reg, g.r.Intn(tcpRegionPages), 1)
	} else {
		first := g.r.Intn(tcpRegionPages/tcpReadExtent) * tcpReadExtent
		d, err = r.readExtent(ctx, node, reg, first, tcpReadExtent)
	}
	r.countOp(d, err == nil)
}

func (w *tcpMixed) verify(ctx context.Context, r *recorder) error {
	for _, reg := range w.regs {
		if err := verifyRegion(ctx, w.c.node(1), reg, r); err != nil {
			return err
		}
	}
	return nil
}

// --- region_churn ------------------------------------------------------

type regionChurn struct {
	c *cluster
	// live holds the regions not yet destroyed, oldest first.
	live []*benchRegion
	next uint64
}

const (
	churnPages = 16
	// churnLive is how many cycles a region lives before it is destroyed.
	churnLive = 64
)

func (w *regionChurn) spec() clusterSpec { return clusterSpec{nodes: 3, memPages: 4096} }
func (w *regionChurn) clients() int      { return 1 }
func (w *regionChurn) exact() bool       { return true }

func (w *regionChurn) setup(ctx context.Context, c *cluster, r *recorder) error {
	w.c = c
	w.live = w.live[:0]
	for i := 0; i < churnLive; i++ {
		if err := w.create(ctx, r); err != nil {
			return err
		}
	}
	return nil
}

// create reserves and allocates a region on node 1 and writes its page 0.
func (w *regionChurn) create(ctx context.Context, r *recorder) error {
	node := w.c.node(1)
	t := r.begin(ctx, 1, OpCreate)
	w.next++
	reg, err := createRegion(t.ctx, r, node, churnPages, w.next<<32, khazana.Attrs{})
	r.end(&t, 0, err)
	if err != nil {
		return err
	}
	w.live = append(w.live, reg)
	t = r.begin(ctx, 1, OpWrite)
	err = r.writeLocked(t.ctx, node, reg, 0, 1)
	r.end(&t, pageSize, err)
	return err
}

// step is one cycle: node 1 creates a region and writes its page 0; node 3
// cold-opens the region created the cycle before (its region directory has
// never seen it, and the one-cycle lag lets the asynchronous ring announce
// land without the benchmark reaching into the node); node 1 destroys the
// region created churnLive cycles ago. No lookup follows a destroy.
func (w *regionChurn) step(ctx context.Context, _ int, r *recorder) {
	cycle := time.Now()
	prev := w.live[len(w.live)-1]
	err := w.create(ctx, r)
	if err == nil {
		floor := [1]uint64{prev.acked[0].Load()}
		t := r.begin(ctx, 3, OpColdOpen)
		err = r.readLocked(t.ctx, w.c.node(3), prev, 0, 1, floor[:], false)
		r.end(&t, pageSize, err)
	}
	if err == nil {
		old := w.live[0]
		w.live = w.live[1:]
		t := r.begin(ctx, 1, OpUnreserve)
		err = w.c.node(1).Unreserve(t.ctx, old.start, principal)
		r.end(&t, 0, err)
	}
	r.countOp(time.Since(cycle), err == nil)
}

// verify reads page 0 of every live region from node 2, which has opened
// none of them.
func (w *regionChurn) verify(ctx context.Context, r *recorder) error {
	for _, reg := range w.live {
		floor := [1]uint64{reg.acked[0].Load()}
		if err := r.readLocked(ctx, w.c.node(2), reg, 0, 1, floor[:], true); err != nil {
			return fmt.Errorf("verify region %v: %w", reg.start, err)
		}
	}
	return nil
}
