// Package replog is a compact majority-replicated command log for
// region home state — the availability layer behind one-election home
// failover. Each CREW home (the leader for its regions) appends
// region-metadata deltas at release boundaries: ownership grants,
// copyset changes, page-directory version updates, and publish-epoch
// advances. The other listed homes follow the log as warm standbys; a
// release is acked to the client once a majority of the home list, the
// leader counted, holds its log entry, so a standby that wins the
// post-crash election resumes from the log with no lost-release window,
// subsuming the §3.5 retry queue for the common crash case.
//
// The design is a deliberately small Raft subset shaped to Khazana's
// topology: one log per region, membership fixed by the region
// descriptor's home list, a leader lease in place of periodic
// heartbeats (appends double as lease refreshes; elections are only
// triggered by the existing unreachable-home detection in the client
// retry path), and a log-up-to-date vote rule that steers leadership
// to the most current standby. A release's append carries the released
// pages' bytes too, which a standby stores before it appends; the log
// retains only entries. A follower gets appends in index order, one send
// in flight at a time (see run).
package replog

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"khazana/internal/enc"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/telemetry"
	"khazana/internal/wire"
)

const (
	// DefaultLeaseTimeout is how long a standby honors a silent
	// leader's lease before granting votes against it. Appends refresh
	// the lease, so an active home is never deposed by a spurious
	// election; after a crash the first campaigner waits out at most
	// one lease window.
	DefaultLeaseTimeout = 250 * time.Millisecond
	// keepTail bounds the committed entries retained per region after
	// compaction (a leader keeps up to maxTail for a follower behind);
	// followers further behind catch up via a state snapshot instead of
	// entry replay.
	keepTail, maxTail = 64, 64 * 64
	// ackTimeout bounds the sends of an append, from when it is made.
	ackTimeout = time.Second
	// retryDelay is how long a follower rests after a failed send.
	retryDelay = 50 * time.Millisecond
)

// ErrNotLeader reports that this node is not the region's log leader;
// the caller's descriptor is stale and should be refreshed.
var ErrNotLeader = errors.New("replog: not region leader")

// Campaign's losses: ErrLogBehind when a voter's log is more up to date
// than the candidate's, so no retry can win until the candidate catches
// up; ErrNoQuorum otherwise (a split vote, a live lease, voters down).
var (
	ErrLogBehind = errors.New("replog: candidate's log behind a voter's")
	ErrNoQuorum  = errors.New("replog: no vote majority")
)

// errLogBehind is the vote refusal behind ErrLogBehind.
const errLogBehind = "log behind"

// SendFunc issues one RPC to a peer and returns its reply. It is
// injected by the embedding node so the log has no transport
// dependency.
type SendFunc func(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error)

// Config configures a Log.
type Config struct {
	// Self is the embedding node's identity.
	Self ktypes.NodeID
	// Dir, when non-empty, is where Save persists the durable tail.
	Dir string
	// Send issues RPCs to fellow home-list members.
	Send SendFunc
	// Tel supplies the metrics registry (nil disables).
	Tel *telemetry.Registry
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
	// LeaseTimeout overrides DefaultLeaseTimeout when positive.
	LeaseTimeout time.Duration
	// Pages is the node's page contents: catch-ups carry them, followers
	// check appends against them, copysets follow acks. Without one the
	// log carries and checks no bytes (a probe of its own cost).
	Pages Pages
}

// Pages connects a Log to the page contents its release entries name.
type Pages interface {
	// Current returns an item, its frame the log's, for each named page
	// held here, labelled with a version no newer than its bytes.
	Current(region gaddr.Addr, pages []gaddr.Addr) []wire.UpdateItem
	// Held returns the version of the bytes held here for a page.
	Held(region, page gaddr.Addr) uint64
	// Acked reports a follower's answer to an append carrying pages.
	Acked(region gaddr.Addr, follower ktypes.NodeID, pages []wire.UpdateItem, ok bool)
}

// noPages is the page source of a log built without one: it holds no
// bytes and takes every version as held.
type noPages struct{}

func (noPages) Current(gaddr.Addr, []gaddr.Addr) []wire.UpdateItem       { return nil }
func (noPages) Held(gaddr.Addr, gaddr.Addr) uint64                       { return ^uint64(0) }
func (noPages) Acked(gaddr.Addr, ktypes.NodeID, []wire.UpdateItem, bool) {}

// Log is a node's collection of per-region replicated metadata logs:
// leader for the regions this node is primary home of, follower for
// the regions it stands by.
type Log struct {
	self  ktypes.NodeID
	dir   string
	send  SendFunc
	now   func() time.Time
	lease time.Duration
	pages Pages

	mu      sync.Mutex
	regions map[gaddr.Addr]*regionLog

	// tail tracks retained entries across all regions for the gauge.
	tail atomic.Int64

	logLen    *telemetry.Gauge
	commitLat *telemetry.Histogram
	elections *telemetry.Counter
	failovers *telemetry.Counter
	degraded  *telemetry.Counter
	catchups  *telemetry.Counter

	// flights counts the running senders; fidle signals it reaching zero.
	fmu     sync.Mutex
	flights int
	fidle   sync.Cond
}

// regionLog is one region's log replica. mu guards it and is never held
// across an RPC; cond wakes a leader's waiting appends when a follower's
// answer lands, its stream goes idle, or a waiter's context ends.
type regionLog struct {
	start gaddr.Addr

	mu        sync.Mutex
	cond      sync.Cond
	term      uint64
	leader    ktypes.NodeID
	votedTerm uint64
	votedFor  ktypes.NodeID
	// lastAppend is the lease timestamp: the last time this replica
	// accepted an append from the leader (or, on the leader itself,
	// performed one).
	lastAppend time.Time
	// floor is the index of the last compacted-away entry; entries
	// holds indexes floor+1..floor+len(entries). floorTerm is the term
	// of the entry at floor.
	floor     uint64
	floorTerm uint64
	entries   []wire.ReplEntry
	commit    uint64
	state     RegionState
	// gone marks a forgotten region: its senders stop.
	gone bool

	// The leader's side: the home list of its last append and a stream
	// per follower, for streamTerm.
	homes      []ktypes.NodeID
	streams    []*stream
	streamTerm uint64
}

// stream is the leader's send state for one follower in one term.
type stream struct {
	to ktypes.NodeID
	// match is the last index the follower acked; known once it has.
	match uint64
	known bool
	// busy while a run sends to the follower; the entries of appends
	// made meanwhile follow from the log.
	busy bool
	// failed is when the last send failed; zero while the follower acks.
	failed time.Time
}

// New builds a Log. Call Load afterwards to restore a durable tail.
func New(cfg Config) *Log {
	l := &Log{
		self:    cfg.Self,
		dir:     cfg.Dir,
		send:    cfg.Send,
		now:     cfg.Now,
		lease:   cfg.LeaseTimeout,
		pages:   cfg.Pages,
		regions: make(map[gaddr.Addr]*regionLog),
	}
	if l.now == nil {
		l.now = time.Now
	}
	if l.lease <= 0 {
		l.lease = DefaultLeaseTimeout
	}
	if l.pages == nil {
		l.pages = noPages{}
	}
	l.logLen = cfg.Tel.Gauge(telemetry.MetricReplLogLen)
	l.commitLat = cfg.Tel.Histogram(telemetry.MetricReplCommitLatency)
	l.elections = cfg.Tel.Counter(telemetry.MetricReplElections)
	l.failovers = cfg.Tel.Counter(telemetry.MetricReplFailovers)
	l.degraded = cfg.Tel.Counter(telemetry.MetricReplDegradedCommits)
	l.catchups = cfg.Tel.Counter(telemetry.MetricReplCatchups)
	return l
}

// region returns (creating if needed) the region's log replica.
func (l *Log) region(start gaddr.Addr) *regionLog {
	l.mu.Lock()
	defer l.mu.Unlock()
	rl, ok := l.regions[start]
	if !ok {
		rl = &regionLog{start: start, state: newRegionState()}
		rl.cond.L = &rl.mu
		l.regions[start] = rl
	}
	return rl
}

// Forget drops a destroyed region's log replica and its retained entries.
func (l *Log) Forget(start gaddr.Addr) {
	l.mu.Lock()
	rl, ok := l.regions[start]
	delete(l.regions, start)
	l.mu.Unlock()
	if !ok {
		return
	}
	rl.mu.Lock()
	retained := len(rl.entries)
	rl.gone = true
	rl.mu.Unlock()
	l.addTail(-retained)
}

// Regions reports how many regions have a log replica here (diagnostics
// and tests).
func (l *Log) Regions() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.regions)
}

// addTail moves the retained-entry gauge by delta.
func (l *Log) addTail(delta int) {
	l.tail.Add(int64(delta))
	l.logLen.Set(l.tail.Load())
}

func (rl *regionLog) lastIndexLocked() uint64 {
	return rl.floor + uint64(len(rl.entries))
}

func (rl *regionLog) lastTermLocked() uint64 {
	if n := len(rl.entries); n > 0 {
		return rl.entries[n-1].Term
	}
	return rl.floorTerm
}

// termAtLocked returns the term of the entry at index i, or ok=false
// when the replica does not hold it.
func (rl *regionLog) termAtLocked(i uint64) (uint64, bool) {
	switch {
	case i == rl.floor:
		return rl.floorTerm, true
	case i > rl.floor && i <= rl.lastIndexLocked():
		return rl.entries[i-rl.floor-1].Term, true
	case i == 0:
		return 0, true
	default:
		return 0, false
	}
}

// advanceCommitLocked moves the commit index up to min(to, last),
// applying newly committed entries to the materialized state, and
// returns how many entries compaction dropped.
func (rl *regionLog) advanceCommitLocked(to uint64) int {
	last := rl.lastIndexLocked()
	if to > last {
		to = last
	}
	for i := rl.commit + 1; i <= to; i++ {
		rl.state.apply(&rl.entries[i-rl.floor-1])
	}
	if to > rl.commit {
		rl.commit = to
	}
	return rl.compactLocked()
}

// compactLocked drops committed entries beyond the retained tail and
// returns how many were dropped. A leader keeps, up to maxTail entries,
// those a follower that still acks has yet to ack, so it catches up from
// entries; only one further behind, or one that failed, needs a snapshot.
// The tail moves down inside the existing array, and the vacated slots
// are cleared so their Nodes slices can be collected; nothing outside mu
// holds a view of entries (catch-ups copy).
func (rl *regionLog) compactLocked() int {
	committed := rl.commit - rl.floor
	if committed <= keepTail {
		return 0
	}
	drop := int(committed - keepTail)
	if rl.streamTerm == rl.term && len(rl.entries) <= maxTail {
		for _, s := range rl.streams {
			if s.known && s.failed.IsZero() && s.match >= rl.floor && s.match-rl.floor < uint64(drop) {
				drop = int(s.match - rl.floor)
			}
		}
		if drop == 0 {
			return 0
		}
	}
	rl.floorTerm = rl.entries[drop-1].Term
	rl.floor += uint64(drop)
	kept := copy(rl.entries, rl.entries[drop:])
	clear(rl.entries[kept:])
	rl.entries = rl.entries[:kept]
	return drop
}

// Append is AppendPages without pages.
func (l *Log) Append(ctx context.Context, desc *region.Descriptor, entries ...wire.ReplEntry) error {
	return l.AppendPages(ctx, desc, nil, entries...)
}

// AppendPages appends entries to the region's log as its leader, hands
// them with pages (the contents they name; the log takes over the frame
// references) to each other listed home's stream (see run), and returns
// once a majority of the home list, this node counted, holds them: one
// follower ack at three homes, the one follower at two. Entries need only
// Op and the op's payload fields; Index, Term, and Region are stamped
// here. A single-home region commits at once with no network. If a
// majority can no longer ack — followers refused, failed, timed out or
// rest after a failure — or ctx ends first, the entries commit locally
// anyway (degraded mode, counted; the sends go on): Khazana favors availability here, and the log-up-to-date
// election rule keeps a lagging standby from winning leadership over a
// current one. Returns ErrNotLeader when another node holds the region's
// leadership or a follower's reply deposes this one.
func (l *Log) AppendPages(ctx context.Context, desc *region.Descriptor, pages []wire.UpdateItem, entries ...wire.ReplEntry) error {
	if len(entries) == 0 {
		wire.ReleaseItems(pages)
		return nil
	}
	rl := l.region(desc.Range.Start)
	rl.mu.Lock()
	if rl.leader != l.self {
		// A region with no elected leader is led by its listed primary
		// home by birthright (the normal creation path), which claims
		// term 1 as a self-vote. Birthright holds only at a term this
		// replica voted itself: a deposed primary, moved to a later term
		// by a refusal, must not take the lead back at that term.
		if rl.leader == 0 && len(desc.Home) > 0 && desc.Home[0] == l.self &&
			(rl.term == 0 || rl.votedTerm == rl.term && rl.votedFor == l.self) {
			if rl.term == 0 {
				rl.term, rl.votedTerm, rl.votedFor = 1, 1, l.self
			}
			rl.leader = l.self
		} else {
			rl.mu.Unlock()
			wire.ReleaseItems(pages)
			return ErrNotLeader
		}
	}
	term := rl.term
	prevIdx := rl.lastIndexLocked()
	prevTerm, _ := rl.termAtLocked(prevIdx)
	for i := range entries {
		entries[i].Index = prevIdx + uint64(i+1)
		entries[i].Term = term
		entries[i].Region = desc.Range.Start
	}
	rl.entries = append(rl.entries, entries...)
	last := rl.lastIndexLocked()
	rl.lastAppend = l.now()
	l.addTail(len(entries))
	start := l.now()

	if rl.streamTerm != term {
		rl.streams, rl.streamTerm = nil, term
	}
	if !slices.Equal(rl.homes, desc.Home) {
		rl.homes = slices.Clone(desc.Home)
	}
	o := &outgoing{msg: wire.ReplAppend{
		Region: desc.Range.Start, From: l.self, Term: term,
		PrevIndex: prevIdx, PrevTerm: prevTerm, Commit: rl.commit,
		Entries: entries, Pages: pages,
	}}
	o.refs.Store(1)              // the dispatch's own, dropped below
	needed := len(desc.Home) / 2 // follower acks that make a majority
	resting := 0
	for _, h := range desc.Home {
		// A failed follower rests while the majority can do without it.
		if h != l.self && !l.dispatchLocked(ctx, rl, rl.stream(h), o, resting >= len(desc.Home)-1-needed) {
			resting++
		}
	}
	o.done()

	acks := 0
	var stop func() bool
	for rl.leadsLocked(l.self, term) {
		acks = 0
		open := 0
		for _, s := range rl.streams {
			switch {
			case !slices.Contains(desc.Home, s.to):
			case s.match >= last:
				acks++
			case s.busy:
				open++
			}
		}
		if acks >= needed || acks+open < needed || ctx.Err() != nil {
			break
		}
		if stop == nil && ctx.Done() != nil {
			stop = context.AfterFunc(ctx, func() {
				rl.mu.Lock()
				rl.cond.Broadcast()
				rl.mu.Unlock()
			})
		}
		rl.cond.Wait()
	}
	if stop != nil {
		stop()
	}
	if !rl.leadsLocked(l.self, term) {
		rl.mu.Unlock()
		return ErrNotLeader
	}
	if acks < needed {
		l.degraded.Add(1)
	}
	dropped := rl.advanceCommitLocked(last)
	rl.mu.Unlock()
	if dropped > 0 {
		l.addTail(-dropped)
	}
	l.commitLat.ObserveSince(start)
	return nil
}

// outgoing is one append on its way to followers: the frames of its pages
// are released, and its send context cancelled, when the last send ends.
type outgoing struct {
	msg    wire.ReplAppend
	ctx    context.Context
	cancel context.CancelFunc
	refs   atomic.Int32
}

// take adds a send's reference to o; the first makes its context,
// detached from the caller's, as the sends outlive the append's wait.
func (o *outgoing) take(ctx context.Context) *outgoing {
	if o.ctx == nil {
		o.ctx, o.cancel = context.WithTimeout(context.WithoutCancel(ctx), ackTimeout)
	}
	o.refs.Add(1)
	return o
}

func (o *outgoing) done() {
	if o.refs.Add(-1) == 0 {
		o.msg.ReleaseFrames()
		if o.cancel != nil {
			o.cancel()
		}
	}
}

// dispatchLocked hands o to s and reports whether s takes it. A busy
// follower gets o's entries from the log after its send in flight. An
// idle one that holds o's predecessor, or whose last send failed, gets o:
// one that answers with a log gap gets a snapshot catch-up (see run), so
// one that stays unreachable costs one send per try and no snapshot. One
// otherwise behind gets its entries from the log. A follower that failed
// less than retryDelay ago rests, unless wake.
func (l *Log) dispatchLocked(ctx context.Context, rl *regionLog, s *stream, o *outgoing, wake bool) bool {
	failed := !s.failed.IsZero()
	switch {
	case s.busy:
	case failed && !wake && l.now().Sub(s.failed) < retryDelay:
		return false
	case failed || !s.known || s.match == o.msg.PrevIndex:
		l.startLocked(rl, s, o.take(ctx))
	default:
		l.startLocked(rl, s, nil)
	}
	return true
}

// startLocked marks s busy and starts its sender with o (nil: a catch-up).
func (l *Log) startLocked(rl *regionLog, s *stream, o *outgoing) {
	s.busy = true
	l.fmu.Lock()
	l.flights++
	l.fmu.Unlock()
	go l.run(rl, s, o, rl.streamTerm)
}

// run is s's sender, the one send in flight to its follower, so appends
// arrive in index order. It sends o (nil: a catch-up, counted) and then,
// while the follower acks and holds less than the log, appends built from
// the log (see next), each carrying every entry made meanwhile. A log gap is repaired with a snapshot catch-up. Each
// answer reaches Pages.Acked before an append waiting on it sees it; a
// failure ends the run, and the follower rests.
func (l *Log) run(rl *regionLog, s *stream, o *outgoing, term uint64) {
	defer l.flightDone()
	if o == nil {
		o = l.next(rl, s, term, true)
	}
	for o != nil {
		reply, err := l.send(o.ctx, s.to, &o.msg)
		ack, _ := reply.(*wire.ReplAck)
		if err == nil && ack != nil && !ack.OK && ack.Term <= term && ack.Err == errLogGap {
			if snap := l.snapshotFor(rl, term); snap != nil {
				o.done()
				o = snap
				l.catchups.Add(1)
				reply, err = l.send(o.ctx, s.to, &o.msg)
				ack, _ = reply.(*wire.ReplAck)
			}
		}
		ok := err == nil && ack != nil && ack.OK
		if len(o.msg.Pages) > 0 {
			l.pages.Acked(rl.start, s.to, o.msg.Pages, ok)
		}
		held := o.msg.PrevIndex + uint64(len(o.msg.Entries))
		o.done()

		rl.mu.Lock()
		if ack != nil && ack.Term > rl.term {
			rl.term, rl.leader = ack.Term, 0
		}
		if !ok {
			s.failed = l.now()
			rl.idleLocked(s)
			rl.mu.Unlock()
			return
		}
		s.match, s.known, s.failed = max(s.match, held), true, time.Time{}
		rl.cond.Broadcast()
		rl.mu.Unlock()
		o = l.next(rl, s, term, false)
	}
}

// next returns s's next append, built from the log: a snapshot catch-up
// when the follower has not acked this term or compaction dropped what
// follows its ack, else the entries since its ack, up to keepTail, with
// the current bytes of the pages they name. It returns nil, s marked
// idle, when the follower holds the log or this node no longer leads in
// term.
func (l *Log) next(rl *regionLog, s *stream, term uint64, catchup bool) *outgoing {
	rl.mu.Lock()
	last := rl.lastIndexLocked()
	if !rl.leadsLocked(l.self, term) || s.known && s.match >= last {
		rl.idleLocked(s)
		rl.mu.Unlock()
		return nil
	}
	if catchup {
		l.catchups.Add(1)
	}
	if !s.known || s.match < rl.floor {
		rl.mu.Unlock()
		return l.snapshotFor(rl, term)
	}
	end := min(last, s.match+keepTail)
	prevTerm, _ := rl.termAtLocked(s.match)
	o := &outgoing{msg: wire.ReplAppend{
		Region: rl.start, From: l.self, Term: term,
		PrevIndex: s.match, PrevTerm: prevTerm, Commit: rl.commit,
		Entries: slices.Clone(rl.entries[s.match-rl.floor : end-rl.floor]),
	}}
	rl.mu.Unlock()
	return l.withPages(o, nil)
}

// idleLocked ends s's run.
func (rl *regionLog) idleLocked(s *stream) {
	s.busy = false
	rl.cond.Broadcast()
}

// errLogGap is the one NACK a snapshot catch-up repairs.
const errLogGap = "log gap"

// snapshotFor builds a snapshot catch-up: the committed state cut at the
// commit index, every retained entry above it, and the current bytes of
// every page the state or those entries name; nil when this node no
// longer leads in term.
func (l *Log) snapshotFor(rl *regionLog, term uint64) *outgoing {
	rl.mu.Lock()
	if !rl.leadsLocked(l.self, term) {
		rl.mu.Unlock()
		return nil
	}
	e := enc.NewEncoder(256)
	rl.state.EncodeTo(e)
	snapTerm, _ := rl.termAtLocked(rl.commit)
	o := &outgoing{msg: wire.ReplAppend{
		Region: rl.start, From: l.self, Term: term,
		PrevIndex: rl.commit, PrevTerm: snapTerm, Commit: rl.commit,
		Entries:   slices.Clone(rl.entries[rl.commit-rl.floor:]),
		SnapIndex: rl.commit, SnapTerm: snapTerm, SnapState: e.Bytes(),
	}}
	named := make([]gaddr.Addr, 0, len(rl.state.PageVersion))
	for p := range rl.state.PageVersion {
		named = append(named, p)
	}
	rl.mu.Unlock()
	return l.withPages(o, named)
}

// withPages attaches the current bytes of the pages named, and of those
// o's release entries name, and o's send context.
func (l *Log) withPages(o *outgoing, named []gaddr.Addr) *outgoing {
	for _, en := range o.msg.Entries {
		if en.Op == wire.ReplOpRelease {
			named = append(named, en.Page)
		}
	}
	slices.SortFunc(named, gaddr.Addr.Cmp)
	o.msg.Pages = l.pages.Current(o.msg.Region, slices.Compact(named))
	o.ctx, o.cancel = context.WithTimeout(context.Background(), ackTimeout)
	o.refs.Store(1)
	return o
}

// leadsLocked reports whether self leads the region in term.
func (rl *regionLog) leadsLocked(self ktypes.NodeID, term uint64) bool {
	return !rl.gone && rl.term == term && rl.leader == self
}

// stream returns the leader's stream to follower h, made on first use in
// the current term.
func (rl *regionLog) stream(h ktypes.NodeID) *stream {
	for _, s := range rl.streams {
		if s.to == h {
			return s
		}
	}
	s := &stream{to: h}
	rl.streams = append(rl.streams, s)
	return s
}

func (l *Log) flightDone() {
	l.fmu.Lock()
	if l.flights--; l.flights == 0 {
		l.fidle.Broadcast()
	}
	l.fmu.Unlock()
}

// Settle waits until no send is in flight, sends each follower of a region
// led here that is then behind one catch-up, its rest after a failure cut
// short, and waits again: after it every reachable follower holds the
// leader's log and the bytes it names. Tests call it before they look at
// followers.
func (l *Log) Settle() {
	l.wait()
	l.mu.Lock()
	for _, rl := range l.regions {
		rl.mu.Lock()
		for _, s := range rl.streams {
			if rl.leadsLocked(l.self, rl.streamTerm) && slices.Contains(rl.homes, s.to) && !s.busy && (!s.known || s.match < rl.lastIndexLocked()) {
				l.startLocked(rl, s, nil)
			}
		}
		rl.mu.Unlock()
	}
	l.mu.Unlock()
	l.wait()
}

// Close waits for the sends in flight.
func (l *Log) Close() { l.wait() }

func (l *Log) wait() {
	l.fmu.Lock()
	if l.fidle.L == nil {
		l.fidle.L = &l.fmu
	}
	for l.flights > 0 {
		l.fidle.Wait()
	}
	l.fmu.Unlock()
}

// HandleAppend applies a leader's append, its pages already stored, on a
// follower and returns the ack. With a page source, an append whose
// release entries or snapshot name a version newer than the bytes held
// here is refused whole. Exported for the node's RPC dispatch.
func (l *Log) HandleAppend(m *wire.ReplAppend) *wire.ReplAck {
	// A snapshot is decoded, and the page versions checked, before the
	// lock: the page source takes the page table's.
	var snap RegionState
	held := true
	if len(m.SnapState) > 0 {
		d := enc.NewDecoder(m.SnapState)
		snap, held = DecodeRegionState(d), d.Err() == nil
	}
	held = held && l.holds(m, snap.PageVersion)
	rl := l.region(m.Region)
	rl.mu.Lock()
	if m.Term < rl.term {
		ack := &wire.ReplAck{Term: rl.term, Ack: rl.lastIndexLocked(), Err: "stale term"}
		rl.mu.Unlock()
		return ack
	}
	rl.term = m.Term
	rl.leader = m.From
	rl.votedFor = 0
	rl.lastAppend = l.now()
	if !held {
		ack := &wire.ReplAck{Term: rl.term, Ack: rl.commit, Err: "bad snapshot or bytes not held"}
		rl.mu.Unlock()
		return ack
	}

	delta := 0
	// Snapshot install for a follower behind the leader's compaction
	// floor.
	install := m.SnapIndex > 0 && len(m.SnapState) > 0 && m.SnapIndex > rl.commit
	if install {
		delta -= len(rl.entries)
		rl.state = snap
		rl.floor = m.SnapIndex
		rl.floorTerm = m.SnapTerm
		rl.entries = nil
		rl.commit = m.SnapIndex
	}

	// Raft consistency check: we must hold the leader's previous entry
	// at the same term, else the leader retries with a snapshot.
	if pt, ok := rl.termAtLocked(m.PrevIndex); !ok || (m.PrevIndex > 0 && pt != m.PrevTerm) {
		ack := &wire.ReplAck{Term: rl.term, Ack: rl.commit, Err: errLogGap}
		if delta != 0 {
			l.addTail(delta)
		}
		rl.mu.Unlock()
		return ack
	}

	for i := range m.Entries {
		en := m.Entries[i]
		if en.Index <= rl.floor {
			continue
		}
		off := int(en.Index - rl.floor - 1)
		if off < len(rl.entries) {
			if rl.entries[off].Term == en.Term {
				continue
			}
			// Divergent uncommitted suffix from a deposed leader:
			// truncate and take the new leader's entries.
			delta -= len(rl.entries) - off
			rl.entries = rl.entries[:off]
		}
		rl.entries = append(rl.entries, en)
		delta++
	}
	if m.Commit > rl.commit {
		delta -= rl.advanceCommitLocked(m.Commit)
	}
	ack := &wire.ReplAck{Term: rl.term, Ack: rl.lastIndexLocked(), OK: true}
	rl.mu.Unlock()

	if delta != 0 {
		l.addTail(delta)
	}
	return ack
}

// holds reports whether the bytes held here are no older than any
// version m's release entries or snapshot (snap) name.
func (l *Log) holds(m *wire.ReplAppend, snap map[gaddr.Addr]uint64) bool {
	for i := range m.Entries {
		if en := &m.Entries[i]; en.Op == wire.ReplOpRelease && l.pages.Held(m.Region, en.Page) < en.Val {
			return false
		}
	}
	for p, v := range snap {
		if l.pages.Held(m.Region, p) < v {
			return false
		}
	}
	return true
}

// HandleVote answers a standby's election request. The vote is granted
// iff the term is new, this replica has not voted for someone else in
// it, the current leader's lease has expired, and the candidate's log
// is at least as up to date as ours. Exported for the node's RPC
// dispatch.
func (l *Log) HandleVote(m *wire.ReplPromote) *wire.ReplAck {
	rl := l.region(m.Region)
	rl.mu.Lock()
	defer rl.mu.Unlock()
	li := rl.lastIndexLocked()
	lt := rl.lastTermLocked()
	if m.Term <= rl.term {
		return &wire.ReplAck{Term: rl.term, Ack: li, Err: "stale term"}
	}
	if m.Term <= rl.votedTerm && rl.votedFor != m.Candidate {
		return &wire.ReplAck{Term: rl.term, Ack: li, Err: "already voted"}
	}
	if rl.leader != 0 && rl.leader != m.Candidate &&
		l.now().Sub(rl.lastAppend) < l.lease {
		return &wire.ReplAck{Term: rl.term, Ack: li, Err: "lease still live"}
	}
	if m.LastTerm < lt || (m.LastTerm == lt && m.LastIndex < li) {
		return &wire.ReplAck{Term: rl.term, Ack: li, Err: errLogBehind}
	}
	rl.term = m.Term
	rl.votedTerm = m.Term
	rl.votedFor = m.Candidate
	rl.leader = 0
	return &wire.ReplAck{Term: rl.term, Ack: li, VoteGranted: true}
}

// Campaign runs one election round for the region and returns nil if
// this node won. Callers retry on ErrNoQuorum (the lease must expire
// before peers grant votes against a freshly crashed leader) but not on
// ErrLogBehind; a majority of the descriptor's home list is required, so
// a two-home region with a dead primary cannot elect — the caller falls
// back to the legacy §3.5 promotion for that shape.
func (l *Log) Campaign(ctx context.Context, desc *region.Descriptor) error {
	rl := l.region(desc.Range.Start)
	rl.mu.Lock()
	term := rl.term + 1
	if rl.votedTerm >= term {
		term = rl.votedTerm + 1
	}
	rl.term = term
	rl.votedTerm = term
	rl.votedFor = l.self
	rl.leader = 0
	li := rl.lastIndexLocked()
	lt := rl.lastTermLocked()
	rl.mu.Unlock()
	l.elections.Add(1)

	var voters []ktypes.NodeID
	for _, h := range desc.Home {
		if h != l.self {
			voters = append(voters, h)
		}
	}
	quorum := len(desc.Home)/2 + 1
	votes := 1 // self
	maxTerm := term
	behind := false
	if len(voters) > 0 {
		msg := &wire.ReplPromote{
			Region: desc.Range.Start, Candidate: l.self,
			Term: term, LastIndex: li, LastTerm: lt,
		}
		type result struct {
			granted, behind bool
			term            uint64
		}
		ch := make(chan result, len(voters))
		for _, v := range voters {
			v := v
			go func() {
				reply, err := l.send(ctx, v, msg)
				if ack, ok := reply.(*wire.ReplAck); err == nil && ok {
					ch <- result{granted: ack.VoteGranted, behind: ack.Err == errLogBehind, term: ack.Term}
					return
				}
				ch <- result{}
			}()
		}
		for i := 0; i < len(voters); i++ {
			select {
			case r := <-ch:
				if r.granted {
					votes++
				}
				behind = behind || r.behind
				if r.term > maxTerm {
					maxTerm = r.term
				}
			case <-ctx.Done():
				i = len(voters) // stop waiting
			}
			if votes >= quorum {
				break
			}
		}
	}

	rl.mu.Lock()
	defer rl.mu.Unlock()
	if maxTerm > rl.term {
		rl.term = maxTerm
	}
	if votes >= quorum && rl.term == term {
		rl.leader = l.self
		rl.lastAppend = l.now()
		l.failovers.Add(1)
		return nil
	}
	if behind {
		return ErrLogBehind
	}
	return ErrNoQuorum
}

// Seize leads the region unelected, at a term above any seen here: the
// legacy two-home takeover (§3.5), which has no ballot majority without
// the dead primary. The term fences the old primary once it returns.
func (l *Log) Seize(start gaddr.Addr) {
	rl := l.region(start)
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.term = max(rl.term, rl.votedTerm) + 1
	rl.votedTerm, rl.votedFor, rl.leader, rl.lastAppend = rl.term, l.self, l.self, l.now()
}

// Leader returns the region's known leader and term (0,0 when the
// region has no log activity yet).
func (l *Log) Leader(start gaddr.Addr) (ktypes.NodeID, uint64) {
	rl := l.region(start)
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.leader, rl.term
}

// Progress returns the region's commit and last log indexes.
func (l *Log) Progress(start gaddr.Addr) (commit, last uint64) {
	rl := l.region(start)
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.commit, rl.lastIndexLocked()
}

// Snapshot returns a deep copy of the region's committed state and
// whether the region has any committed log activity — what a freshly
// elected leader replays into its page directory.
func (l *Log) Snapshot(start gaddr.Addr) (RegionState, bool) {
	rl := l.region(start)
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.state.clone(), rl.commit > 0
}

// TailLen returns the number of retained entries across all regions.
func (l *Log) TailLen() int { return int(l.tail.Load()) }
