// Package core implements the Khazana daemon — the paper's primary
// contribution. A dynamically changing set of cooperating daemon
// processes, all peers (no server role), exports the abstraction of a
// flat, persistent, globally shared store (§2). Each daemon combines:
//
//   - the two-tier local storage hierarchy (§3.4),
//   - the page directory (§3.4),
//   - the region directory cache and descriptor lookup path (§3.2),
//   - pluggable consistency managers (§3.3),
//   - the self-hosted address map tree (§3.1),
//   - cluster membership and hints (§3.1),
//   - failure handling with background release retries and minimum
//     replica maintenance (§3.5).
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"khazana/internal/addrmap"
	"khazana/internal/cluster"
	"khazana/internal/consistency"
	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/pagedir"
	"khazana/internal/region"
	"khazana/internal/replog"
	"khazana/internal/ring"
	"khazana/internal/store"
	"khazana/internal/telemetry"
	"khazana/internal/transport"
	"khazana/internal/wire"
)

// Config configures a daemon.
type Config struct {
	// ID is this node's identity (>= 1).
	ID ktypes.NodeID
	// Transport connects the daemon to its peers.
	Transport transport.Transport
	// StoreDir is the disk tier directory.
	StoreDir string
	// MemPages bounds the RAM tier (0 = default).
	MemPages int
	// DiskPages bounds the disk tier (0 = unbounded).
	DiskPages int
	// ClusterManager names the cluster's manager node. When it equals
	// ID, this daemon runs the manager.
	ClusterManager ktypes.NodeID
	// MapHome names the home node of the address map region; all map
	// mutations are routed there. Defaults to ClusterManager.
	MapHome ktypes.NodeID
	// Genesis initializes the address map (exactly one node per
	// deployment, normally the map home).
	Genesis bool
	// ChunkSize is the span of address space a node reserves from the
	// cluster manager at a time (paper §3.1 suggests one gigabyte).
	ChunkSize uint64
	// HeartbeatInterval drives the liveness/hints loop; 0 disables the
	// background loop (tests drive it manually).
	HeartbeatInterval time.Duration
	// RetryInterval drives the background release-retry queue (§3.5).
	// 0 disables the loop.
	RetryInterval time.Duration
	// ReplicaInterval drives minimum-replica maintenance. 0 disables
	// the loop.
	ReplicaInterval time.Duration
	// MigrationInterval drives the load-aware auto-migration policy
	// (§2 caching-policy goals, §7 migration policies). 0 disables it.
	MigrationInterval time.Duration
	// Migration tunes the policy; the zero value selects defaults.
	Migration MigrationPolicy
	// Registry supplies consistency protocols; nil uses the built-ins.
	Registry *consistency.Registry
	// Tracer, when set, observes the named protocol steps of Figure 2.
	Tracer func(step string)
	// Telemetry supplies the metrics registry and trace recorder; nil
	// creates a private registry.
	Telemetry *telemetry.Registry
}

// DefaultChunkSize is the default address-space chunk a daemon manages
// locally ("a large (e.g., one gigabyte) region of unreserved space",
// §3.1).
const DefaultChunkSize = 1 << 30

// Node is a Khazana daemon.
type Node struct {
	cfg   Config
	tr    transport.Transport
	store *store.Tiered
	// dir holds a page table per region touched here; its records carry
	// each page's directory entry, lock slot, version chain and RAM frame.
	dir  *pagedir.Dir
	rdir *region.Directory
	cms  map[region.Protocol]consistency.CM
	amap *addrmap.Map

	// manager is non-nil when this node is the cluster manager.
	manager *cluster.Manager

	// mapMu serializes address-map mutations (held only at the map
	// home).
	mapMu sync.Mutex

	// mapDesc is the well-known bootstrap descriptor for the map region.
	mapDesc *region.Descriptor

	// authDescs holds the authoritative descriptors of regions homed
	// here, by start.
	authDescs *region.Index[*region.Descriptor]

	// chunkMu guards the local pool of reserved-but-unused space.
	chunkMu sync.Mutex
	chunk   gaddr.Range
	chunkOK bool

	// lockShards hold the active lock contexts, spread by lock ID so
	// concurrent clients touching different contexts never contend on
	// one mutex.
	lockShards [stateShards]lockShard
	nextLID    atomic.Uint64

	// membership view (manager-fed).
	memMu   sync.Mutex
	members []ktypes.NodeID

	// retryShards hold the queue of failed release-side operations
	// (§3.5), spread by page-address hash.
	retryShards [stateShards]retryShard

	// access tracks per-region consistency traffic for the migration
	// policy.
	access *accessTracker

	// repl is the consensus-replicated region-metadata log: homes append
	// release/ownership deltas before acking, standby replicas replay
	// them, and failover promotes whichever standby wins an election.
	repl *replog.Log

	// ringMu guards ringState, the current consistent-hashing partition
	// of region descriptors (nil before the first membership view).
	// ringTable is this node's authoritative descriptor table for the
	// buckets it owns, populated by RingAnnounce traffic and local region
	// lifecycle events.
	ringMu    sync.Mutex
	ringState *ring.Ring
	ringTable *ring.Table

	// flightMu guards flights, the per-bucket cold-lookup singleflight:
	// N concurrent misses for addresses in one bucket collapse into a
	// single remote lookup; waiters re-check the directory afterwards.
	flightMu sync.Mutex
	flights  map[gaddr.Addr]chan struct{}

	// promoMu guards promo, the per-region promotion singleflight:
	// concurrent promoteLocal calls for one region collapse into a
	// single election instead of racing the descriptor reorder.
	promoMu sync.Mutex
	promo   map[gaddr.Addr]chan struct{}

	// app is the application-message hook (see SetAppHandler).
	appMu sync.Mutex
	app   AppHandler

	stop chan struct{}
	done sync.WaitGroup
	once sync.Once

	// tel is the node's metrics registry (nil when disabled); rec is its
	// span recorder. Instruments are resolved once here and recorded
	// lock-free on the hot paths.
	tel   *telemetry.Registry
	rec   *telemetry.Recorder
	stats Stats

	mReadViews      *telemetry.Counter
	mSnapReads      *telemetry.Counter
	mHomePromos     *telemetry.Counter
	mHomeMapFailed  *telemetry.Counter
	mReplicaRepairs *telemetry.Counter
	mRingMoves      *telemetry.Counter
	mRingFallbacks  *telemetry.Counter
	mLockLatency    *telemetry.Histogram
	mReleaseLatency *telemetry.Histogram
	mBatchPages     *telemetry.Histogram
	mPingRTT        *telemetry.Histogram
	mStageDir       *telemetry.Histogram
	mStageRing      *telemetry.Histogram
	mStageWalk      *telemetry.Histogram
	gMemPages       *telemetry.Gauge
	gDiskPages      *telemetry.Gauge
	gHomedRegions   *telemetry.Gauge
}

// Stats counts daemon activity. The fields are registry-backed counters
// (names in internal/telemetry/names.go), so the same values surface
// through Statistics(), `khazctl stats`, and the /metrics endpoint.
type Stats struct {
	Lookups        *telemetry.Counter
	DirHits        *telemetry.Counter
	RingHits       *telemetry.Counter
	LocksGranted   *telemetry.Counter
	ReleaseRetries *telemetry.Counter
	Promotions     *telemetry.Counter
}

// retryOp is a queued release-side operation.
type retryOp struct {
	desc  *region.Descriptor
	page  gaddr.Addr
	mode  ktypes.LockMode
	dirty bool
}

// stateShards is the power-of-two shard count for the node's hot
// mutable state (lock contexts and the §3.5 retry queue). Sixteen
// shards keep disjoint clients on disjoint cache lines at thousands of
// concurrent requests while costing only a few hundred bytes of mutexes
// per node.
const stateShards = 16

// shardMask selects a shard from a key hash.
const shardMask = stateShards - 1

// lockShard is one shard of the active lock-context table.
type lockShard struct {
	mu  sync.Mutex
	ctx map[uint64]*LockContext
}

// retryShard is one shard of the §3.5 retry queue.
type retryShard struct {
	mu  sync.Mutex
	ops []retryOp
}

// lockShardFor selects the shard holding lock context id. IDs are
// sequential (nextLID), so consecutive lock acquisitions spread evenly
// across shards.
func (n *Node) lockShardFor(id uint64) *lockShard {
	return &n.lockShards[id&shardMask]
}

// retryShardFor selects the retry shard for a page address. The
// Fibonacci hash mixes the page bits so pages of one region — which
// share high bits — still spread across shards.
func (n *Node) retryShardFor(page gaddr.Addr) *retryShard {
	h := (page.Lo ^ page.Hi) * 0x9e3779b97f4a7c15
	return &n.retryShards[(h>>32)&shardMask]
}

// lockInlinePages is how many pages (and pinned views) a lock context
// stores inline; the paper's services lock a page or a few at a time
// (§4.1), so the common context is a single heap object. Larger batches
// spill to the heap.
const lockInlinePages = 4

// LockContext is the token returned by Lock and presented on read and
// write operations (paper §2). It is the one heap object a resident lock
// cycle creates, so it carries its own small storage, and it is never
// reused: a second Unlock must find the context freed.
type LockContext struct {
	id uint64
	// off and size are the locked range, off counted from the region's
	// start (see Range).
	off, size uint64
	mode      ktypes.LockMode
	freed     bool // guarded by mu
	// dirtyBuf holds a small context's dirty marks (see dirtyMarks).
	dirtyBuf [lockInlinePages]bool

	desc *region.Descriptor
	// tab is the region's page table, fixed at the grant. A teardown
	// during the hold drops it from the directory; the holder still reads
	// the copies it pinned through it, and Unlock drops them.
	tab   *pagedir.Table
	pages []gaddr.Addr
	// dirtyMarks is the first of the context's dirty marks, aligned with
	// pages and set by its first Write: dirtyBuf for a context of at most
	// lockInlinePages pages, else a heap array. The context measures 288
	// bytes, the size class the cached-read path allocates; a []bool
	// here, or a gaddr.Range in place of off and size, would move it to
	// the 320-byte class.
	dirtyMarks *bool
	// views pins the frames backing outstanding ReadView results; each
	// entry holds one reference, released at Unlock.
	views []*frame.Frame
	// viewCount batches the read-view metric: incremented under mu on
	// the cached-read fast path (a plain add, since the mutex is already
	// held there) and flushed to the registry counter once at Unlock, so
	// the hot path carries no atomic.
	viewCount uint64
	mu        sync.Mutex
	node      *Node

	// lockSpan and unlockSpan hold the op.lock and op.unlock span
	// contexts. Two slots, each written once before its context is handed
	// on, so nothing that read Lock's span can see Unlock's (DESIGN.md,
	// "Two slots").
	lockSpan, unlockSpan telemetry.Slot
	pageBuf              [lockInlinePages]gaddr.Addr
	viewBuf              [lockInlinePages]*frame.Frame
}

// dirty returns the context's dirty set, aligned with pages: the pages a
// Write touched, nil when none was.
func (lc *LockContext) dirty() []bool {
	if lc.dirtyMarks == nil {
		return nil
	}
	return unsafe.Slice(lc.dirtyMarks, len(lc.pages))
}

// ID returns the lock context identifier.
func (lc *LockContext) ID() uint64 { return lc.id }

// Mode returns the granted mode.
func (lc *LockContext) Mode() ktypes.LockMode { return lc.mode }

// Range returns the locked range.
func (lc *LockContext) Range() gaddr.Range {
	return gaddr.Range{Start: lc.desc.Range.Start.MustAdd(lc.off), Size: lc.size}
}

// Read copies count bytes starting at addr; see Node.Read.
func (lc *LockContext) Read(addr gaddr.Addr, count uint64) ([]byte, error) {
	return lc.node.Read(lc, addr, count)
}

// ReadView returns count bytes starting at addr as a zero-copy view
// aliasing the locally cached page frame. The view must be treated as
// read-only and stays valid only until Unlock, which unpins the backing
// frame; callers needing the bytes longer must copy them or use Read.
// Requests spanning a page boundary fall back to the copying path.
func (lc *LockContext) ReadView(addr gaddr.Addr, count uint64) ([]byte, error) {
	return lc.node.ReadView(lc, addr, count)
}

// Write copies data into the locked range at addr.
func (lc *LockContext) Write(addr gaddr.Addr, data []byte) error {
	return lc.node.Write(lc, addr, data)
}

// Unlock releases the lock. Release-side failures are retried in the
// background and never surface here (§3.5).
func (lc *LockContext) Unlock(ctx context.Context) error {
	return lc.node.Unlock(ctx, lc)
}

// NewNode creates (but does not start) a daemon.
func NewNode(cfg Config) (*Node, error) {
	if cfg.ID == ktypes.NilNode {
		return nil, fmt.Errorf("core: invalid node ID")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("core: transport required")
	}
	if cfg.ClusterManager == ktypes.NilNode {
		cfg.ClusterManager = cfg.ID
	}
	if cfg.MapHome == ktypes.NilNode {
		cfg.MapHome = cfg.ClusterManager
	}
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = DefaultChunkSize
	}
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("core: store dir required")
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.New()
	}
	n := &Node{
		cfg:       cfg,
		tr:        cfg.Transport,
		dir:       pagedir.New(),
		rdir:      region.NewDirectory(),
		authDescs: region.NewIndex[*region.Descriptor](0),
		promo:     make(map[gaddr.Addr]chan struct{}),
		access:    newAccessTracker(),
		stop:      make(chan struct{}),
		members:   []ktypes.NodeID{cfg.ID},
		tel:       tel,
		rec:       tel.Tracer(),
		stats: Stats{
			Lookups:        tel.Counter(telemetry.MetricLookups),
			DirHits:        tel.Counter(telemetry.MetricLookupDirHits),
			RingHits:       tel.Counter(telemetry.MetricRingLookups),
			LocksGranted:   tel.Counter(telemetry.MetricLocksGranted),
			ReleaseRetries: tel.Counter(telemetry.MetricReleaseRetries),
			Promotions:     tel.Counter(telemetry.MetricPromotions),
		},
		mReadViews:      tel.Counter(telemetry.MetricReadViews),
		mSnapReads:      tel.Counter(telemetry.MetricSnapshotReads),
		mHomePromos:     tel.Counter(telemetry.MetricHomePromotions),
		mHomeMapFailed:  tel.Counter(telemetry.MetricHomeMapUpdateFailed),
		mReplicaRepairs: tel.Counter(telemetry.MetricReplicaRepairs),
		mRingMoves:      tel.Counter(telemetry.MetricRingRebalanceMoves),
		mRingFallbacks:  tel.Counter(telemetry.MetricRingFallbackWalks),
		mLockLatency:    tel.Histogram(telemetry.MetricLockLatency),
		mReleaseLatency: tel.Histogram(telemetry.MetricReleaseLatency),
		mBatchPages:     tel.Histogram(telemetry.MetricLockBatchPages),
		mPingRTT:        tel.Histogram(telemetry.MetricPingRTT),
		mStageDir:       tel.Histogram(telemetry.MetricLookupStageDir),
		mStageRing:      tel.Histogram(telemetry.MetricLookupStageRing),
		mStageWalk:      tel.Histogram(telemetry.MetricLookupStageWalk),
		gMemPages:       tel.Gauge(telemetry.MetricMemPages),
		gDiskPages:      tel.Gauge(telemetry.MetricDiskPages),
		gHomedRegions:   tel.Gauge(telemetry.MetricHomedRegions),
	}
	n.ringTable = ring.NewTable()
	n.flights = make(map[gaddr.Addr]chan struct{})
	for i := range n.lockShards {
		n.lockShards[i].ctx = make(map[uint64]*LockContext)
	}
	// Transports are built before the node exists; hand them the node's
	// registry so connection, in-flight, and byte metrics surface
	// alongside everything else.
	cfg.Transport.SetTelemetry(tel)
	st, err := store.NewTiered(store.Config{
		MemPages:    cfg.MemPages,
		DiskPages:   cfg.DiskPages,
		Dir:         cfg.StoreDir,
		OnDiskEvict: n.onDiskEvict,
		Pages:       n.dir,
	})
	if err != nil {
		return nil, err
	}
	st.SetMissCounter(tel.Counter(telemetry.MetricMemMisses))
	n.store = st
	n.repl = replog.New(replog.Config{
		Self: cfg.ID,
		Dir:  cfg.StoreDir,
		Send: func(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
			return n.tr.Request(ctx, to, m)
		},
		Tel:   tel,
		Pages: consistency.PageSource{H: hostView{n}},
	})
	reg := cfg.Registry
	if reg == nil {
		reg = consistency.NewRegistry()
	}
	n.cms = reg.Build(hostView{n})
	// Old page versions retained for snapshot readers give their memory
	// back under cache pressure before any demand page is victimized.
	if crew, ok := n.cms[region.CREW].(*consistency.Engine); ok {
		st.SetReclaimer(crew.TrimPublished)
	}
	n.amap = addrmap.New(mapIO{n})
	n.mapDesc = &region.Descriptor{
		Range: gaddr.Range{Start: gaddr.Zero, Size: addrmap.RegionSize},
		Attrs: region.Attrs{
			PageSize:    addrmap.PageSize,
			Level:       region.Relaxed,
			Protocol:    region.Release,
			MinReplicas: 1,
		},
		Home:      []ktypes.NodeID{cfg.MapHome},
		Epoch:     1,
		Allocated: true,
	}
	if cfg.ID == cfg.ClusterManager {
		n.manager = cluster.NewManager(cfg.ID)
	}
	n.tr.SetHandler(n.handle)
	return n, nil
}

// Start restores persisted state, initializes the map (genesis only),
// joins the cluster, and starts background loops.
func (n *Node) Start(ctx context.Context) error {
	if err := n.restore(); err != nil {
		return err
	}
	if n.cfg.Genesis {
		if n.cfg.ID != n.cfg.MapHome {
			return fmt.Errorf("core: genesis node must be the map home")
		}
		if err := n.amap.Init(ctx, []ktypes.NodeID{n.cfg.MapHome}); err != nil {
			return fmt.Errorf("core: init address map: %w", err)
		}
	}
	if err := n.join(ctx); err != nil {
		return err
	}
	n.ringSync(ctx)
	if n.cfg.HeartbeatInterval > 0 {
		n.done.Add(1)
		go n.heartbeatLoop()
	}
	if n.cfg.RetryInterval > 0 {
		n.done.Add(1)
		go n.retryLoop()
	}
	if n.cfg.ReplicaInterval > 0 {
		n.done.Add(1)
		go n.replicaLoop()
	}
	if n.cfg.MigrationInterval > 0 {
		n.done.Add(1)
		go n.migrationLoop(n.cfg.MigrationInterval, n.cfg.Migration)
	}
	return nil
}

// join announces this node to the cluster manager.
func (n *Node) join(ctx context.Context) error {
	if n.manager != nil {
		return nil // the manager is trivially a member
	}
	addr := ""
	if t, ok := n.tr.(*transport.TCP); ok {
		addr = t.Addr()
	}
	resp, err := n.tr.Request(ctx, n.cfg.ClusterManager, &wire.Join{Node: n.cfg.ID, Addr: addr})
	if err != nil {
		return fmt.Errorf("core: join cluster: %w", err)
	}
	if view, ok := resp.(*wire.ClusterView); ok {
		n.setMembers(view.Members)
	}
	return nil
}

// Close stops background loops, waits for the replicated log's sends in
// flight and checkpoints persistent state (§2: the global store is
// persistent; a cleanly stopped daemon serves its homed regions again
// after restart).
func (n *Node) Close() error {
	var err error
	n.once.Do(func() {
		close(n.stop)
		n.done.Wait()
		n.repl.Close()
		err = n.Persist()
	})
	return err
}

// ID returns the node's identity.
func (n *Node) ID() ktypes.NodeID { return n.cfg.ID }

// Manager returns the cluster manager state when this node runs it.
func (n *Node) Manager() *cluster.Manager { return n.manager }

// Statistics returns the daemon's counters.
func (n *Node) Statistics() *Stats { return &n.stats }

// Telemetry returns the node's metrics registry (nil when disabled).
func (n *Node) Telemetry() *telemetry.Registry { return n.tel }

// MetricsSnapshot refreshes the storage gauges and snapshots every
// instrument. It backs the StatsQuery handler and the daemon's /metrics
// endpoint.
func (n *Node) MetricsSnapshot() telemetry.Snapshot {
	n.gMemPages.Set(int64(n.store.Mem().Len()))
	n.gDiskPages.Set(int64(n.store.Disk().Len()))
	n.gHomedRegions.Set(int64(n.authDescs.Len()))
	return n.tel.Snapshot()
}

// TraceSpans returns the node's recorded trace spans, oldest first.
func (n *Node) TraceSpans() []telemetry.SpanRecord { return n.rec.Spans() }

// PingPeer measures the round trip to a peer with a timestamped Ping and
// records it into the RTT histogram — the tracer's baseline network
// signal (the heartbeat loop calls this for the cluster manager).
func (n *Node) PingPeer(ctx context.Context, peer ktypes.NodeID) (time.Duration, error) {
	start := time.Now()
	resp, err := n.tr.Request(ctx, peer, &wire.Ping{From: n.cfg.ID, SentUnixNano: start.UnixNano()})
	if err != nil {
		return 0, err
	}
	pong, ok := resp.(*wire.Pong)
	if !ok {
		return 0, fmt.Errorf("core: ping %v: unexpected reply %T", peer, resp)
	}
	if pong.EchoUnixNano != start.UnixNano() {
		return 0, fmt.Errorf("core: ping %v: echoed stamp mismatch", peer)
	}
	rtt := time.Since(start)
	n.mPingRTT.Observe(uint64(rtt))
	return rtt, nil
}

// Store exposes the local storage hierarchy (diagnostics and tests).
func (n *Node) Store() *store.Tiered { return n.store }

// PageDir exposes the page directory (diagnostics and tests).
func (n *Node) PageDir() *pagedir.Dir { return n.dir }

// RegionDir exposes the region directory cache (diagnostics and tests).
func (n *Node) RegionDir() *region.Directory { return n.rdir }

// AddressMap exposes the address map handle (diagnostics and tests).
func (n *Node) AddressMap() *addrmap.Map { return n.amap }

// Repl exposes the replicated region-metadata log (diagnostics, tests,
// and experiments).
func (n *Node) Repl() *replog.Log { return n.repl }

// ReplSettle blocks until the replicated log's sends to the followers of
// the regions led here have drained (see replog.Log.Settle). A release
// returns once a majority of its homes hold it, so tests and experiments
// that look at every secondary call this first.
func (n *Node) ReplSettle() { n.repl.Settle() }

// Ring returns the node's current consistent-hashing partition view (nil
// before the first membership sync).
func (n *Node) Ring() *ring.Ring {
	n.ringMu.Lock()
	defer n.ringMu.Unlock()
	return n.ringState
}

// RingTable exposes the node's authoritative ring descriptor table
// (diagnostics and tests).
func (n *Node) RingTable() *ring.Table { return n.ringTable }

func (n *Node) setMembers(ms []ktypes.NodeID) {
	n.memMu.Lock()
	defer n.memMu.Unlock()
	n.members = append([]ktypes.NodeID(nil), ms...)
}

// Members returns the latest membership view this node has seen.
func (n *Node) Members() []ktypes.NodeID {
	if n.manager != nil {
		return n.manager.Alive()
	}
	n.memMu.Lock()
	defer n.memMu.Unlock()
	return append([]ktypes.NodeID(nil), n.members...)
}

// trace reports a Figure-2 protocol step to the configured tracer.
func (n *Node) trace(step string) {
	if n.cfg.Tracer != nil {
		n.cfg.Tracer(step)
	}
}

// onDiskEvict runs when a page leaves the node entirely (§3.4: the disk
// cache must invoke the consistency protocol before victimizing a page).
// A dirty page goes home through its region's CM first. The frame is
// borrowed for the duration of the call.
func (n *Node) onDiskEvict(page gaddr.Addr, f *frame.Frame) error {
	tab := n.dir.Find(page)
	if tab == nil {
		return nil
	}
	entry, ok := tab.Lookup(page)
	if !ok || !entry.Dirty {
		tab.Delete(page)
		return nil
	}
	desc, err := n.lookupRegion(context.Background(), page)
	if err != nil {
		return fmt.Errorf("core: evict dirty %v: %w", page, err)
	}
	home, err := desc.PrimaryHome()
	if err != nil {
		return err
	}
	if home == n.cfg.ID {
		return fmt.Errorf("core: refusing to evict dirty home page %v", page)
	}
	cm, err := n.cmFor(desc)
	if err != nil {
		return err
	}
	rel := []consistency.Redelivery{{Page: page, Mode: ktypes.LockWrite, Dirty: true, Frame: f}}
	if errs := cm.Redeliver(context.Background(), desc, rel); errs != nil {
		return fmt.Errorf("core: evict dirty %v: %w", page, errs[0])
	}
	tab.Delete(page)
	return nil
}

// storedFrame returns the page's local copy, held in tab (nil once the
// page's region was torn down here), with a reference the caller must
// Release.
func (n *Node) storedFrame(tab *pagedir.Table, page gaddr.Addr) (*frame.Frame, bool) {
	if tab == nil {
		return nil, false
	}
	return n.store.GetPage(tab.Touch(page))
}

// --- consistency.Host implementation --------------------------------------

// hostView adapts Node to consistency.Host.
type hostView struct{ n *Node }

var _ consistency.Host = hostView{}

// Self implements consistency.Host.
func (h hostView) Self() ktypes.NodeID { return h.n.cfg.ID }

// Request implements consistency.Host.
func (h hostView) Request(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	return h.n.tr.Request(ctx, to, m)
}

// Pages implements consistency.Host.
func (h hostView) Pages() *pagedir.Dir { return h.n.dir }

// LoadPage implements consistency.Host. The returned frame carries one
// reference owned by the caller.
func (h hostView) LoadPage(p *pagedir.Page) (*frame.Frame, bool) {
	return h.n.store.GetPage(p)
}

// StorePage implements consistency.Host. The frame is borrowed; the
// store takes its own reference.
func (h hostView) StorePage(p *pagedir.Page, f *frame.Frame) error {
	return h.n.store.PutPage(p, f)
}

// DropPage implements consistency.Host. Discard is pin-aware: a frame
// pinned by an active lock context survives in RAM as that holder's
// snapshot (it can never read zeroes mid-hold), while the disk copy and
// any unpinned RAM copy are gone, so the next acquire refetches.
func (h hostView) DropPage(p *pagedir.Page) {
	h.n.store.Discard(p)
}

// Repl implements consistency.Host, handing CMs the node's replicated
// region-metadata log so homes can append deltas before acking releases.
func (h hostView) Repl() *replog.Log { return h.n.repl }

// Telemetry implements consistency.Host.
func (h hostView) Telemetry() *telemetry.Registry { return h.n.tel }

// --- addrmap.PageIO implementation -------------------------------------------

// mapIO adapts the daemon's release-consistent page path for the address
// map: the map's tree nodes are ordinary Khazana pages (§3.1).
type mapIO struct{ n *Node }

var _ addrmap.PageIO = mapIO{}

// ReadPage implements addrmap.PageIO. It hands out the stored frame's
// bytes under a reference of their own, taken under the read lock: a
// stored frame is copy-on-write (MutatePage takes a private copy), so the
// bytes stay the ones the lock granted until done drops the reference.
func (io mapIO) ReadPage(ctx context.Context, page gaddr.Addr) ([]byte, func(), error) {
	cm := io.n.cms[region.Release]
	pages := []gaddr.Addr{page}
	if _, err := cm.AcquireBatch(ctx, io.n.mapDesc, pages, ktypes.LockRead); err != nil {
		return nil, nil, err
	}
	defer cm.ReleaseBatch(ctx, io.n.mapDesc, pages, ktypes.LockRead, nil)
	f, ok := io.n.storedFrame(io.n.table(io.n.mapDesc), page)
	if !ok {
		return make([]byte, addrmap.PageSize), func() {}, nil
	}
	return f.Bytes(), f.Release, nil
}

// MutatePage implements addrmap.PageIO. Map mutations run only at the map
// home node, already serialized under n.mapMu. A page fn leaves unchanged
// is neither stored nor released dirty, so its version (and every remote
// reader's cached copy) stays put.
func (io mapIO) MutatePage(ctx context.Context, page gaddr.Addr, fn func([]byte) (bool, error)) error {
	if io.n.cfg.ID != io.n.cfg.MapHome {
		return fmt.Errorf("core: map mutation on non-home node %v", io.n.cfg.ID)
	}
	cm := io.n.cms[region.Release]
	pages := []gaddr.Addr{page}
	if _, err := cm.AcquireBatch(ctx, io.n.mapDesc, pages, ktypes.LockWrite); err != nil {
		return err
	}
	var dirty []bool
	defer func() { cm.ReleaseBatch(ctx, io.n.mapDesc, pages, ktypes.LockWrite, dirty) }()
	rec := io.n.table(io.n.mapDesc).Touch(page)
	var f *frame.Frame
	if got, ok := io.n.store.GetPage(rec); ok {
		// Copy-on-write: the store (and possibly remote readers) share
		// the frame, so take a private copy before mutating.
		f = got.Exclusive()
	} else {
		f = frame.AllocZero(addrmap.PageSize)
	}
	defer f.Release()
	if changed, err := fn(f.Bytes()); err != nil || !changed {
		return err
	}
	if err := io.n.store.PutPage(rec, f); err != nil {
		return err
	}
	dirty = []bool{true}
	return nil
}
