// Package replog is a compact majority-replicated command log for
// region home state — the availability layer behind one-election home
// failover. Each CREW home (the leader for its regions) appends
// region-metadata deltas at release boundaries: ownership grants,
// copyset changes, page-directory version updates, and publish-epoch
// advances. The other listed homes follow the log as warm standbys; a
// release is acked to the client only after a majority of the home
// list holds its log entry, so a standby that wins the post-crash
// election resumes from the log with no lost-release window, subsuming
// the §3.5 retry queue for the common crash case.
//
// The design is a deliberately small Raft subset shaped to Khazana's
// topology: one log per region, membership fixed by the region
// descriptor's home list, a leader lease in place of periodic
// heartbeats (appends double as lease refreshes; elections are only
// triggered by the existing unreachable-home detection in the client
// retry path), and a log-up-to-date vote rule that steers leadership
// to the most current standby. A release's append carries the released
// pages' bytes too, which a standby stores before it appends; the log
// retains only entries, and catch-up appends carry no pages.
package replog

import (
	"context"
	"errors"
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
	// compaction; followers further behind catch up via a state
	// snapshot instead of entry replay.
	keepTail = 64
	// ackTimeout bounds the leader's wait for quorum acks on one
	// append before committing in degraded (local-only) mode.
	ackTimeout = time.Second
)

// ErrNotLeader reports that this node is not the region's log leader;
// the caller's descriptor is stale and should be refreshed.
var ErrNotLeader = errors.New("replog: not region leader")

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
}

// Log is a node's collection of per-region replicated metadata logs:
// leader for the regions this node is primary home of, follower for
// the regions it stands by.
type Log struct {
	self  ktypes.NodeID
	dir   string
	send  SendFunc
	now   func() time.Time
	lease time.Duration

	mu      sync.Mutex
	regions map[gaddr.Addr]*regionLog

	// tail tracks retained entries across all regions for the gauge.
	tail atomic.Int64

	logLen    *telemetry.Gauge
	commitLat *telemetry.Histogram
	elections *telemetry.Counter
	failovers *telemetry.Counter
	degraded  *telemetry.Counter
}

// regionLog is one region's log replica. appendMu serializes leader
// appends for the region end to end (including follower RPCs) so
// entries replicate in index order; mu guards everything else and is
// never held across an RPC.
type regionLog struct {
	start    gaddr.Addr
	appendMu sync.Mutex

	mu        sync.Mutex
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
}

// New builds a Log. Call Load afterwards to restore a durable tail.
func New(cfg Config) *Log {
	l := &Log{
		self:    cfg.Self,
		dir:     cfg.Dir,
		send:    cfg.Send,
		now:     cfg.Now,
		lease:   cfg.LeaseTimeout,
		regions: make(map[gaddr.Addr]*regionLog),
	}
	if l.now == nil {
		l.now = time.Now
	}
	if l.lease <= 0 {
		l.lease = DefaultLeaseTimeout
	}
	l.logLen = cfg.Tel.Gauge(telemetry.MetricReplLogLen)
	l.commitLat = cfg.Tel.Histogram(telemetry.MetricReplCommitLatency)
	l.elections = cfg.Tel.Counter(telemetry.MetricReplElections)
	l.failovers = cfg.Tel.Counter(telemetry.MetricReplFailovers)
	l.degraded = cfg.Tel.Counter(telemetry.MetricReplDegradedCommits)
	return l
}

// region returns (creating if needed) the region's log replica.
func (l *Log) region(start gaddr.Addr) *regionLog {
	l.mu.Lock()
	defer l.mu.Unlock()
	rl, ok := l.regions[start]
	if !ok {
		rl = &regionLog{start: start, state: newRegionState()}
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
// returns how many were dropped. The tail moves down inside the existing
// array, and the vacated slots are cleared so their Nodes slices can be
// collected; nothing outside mu holds a view of entries (catchupMsg copies).
func (rl *regionLog) compactLocked() int {
	committed := rl.commit - rl.floor
	if committed <= keepTail {
		return 0
	}
	drop := int(committed - keepTail)
	rl.floorTerm = rl.entries[drop-1].Term
	rl.floor += uint64(drop)
	kept := copy(rl.entries, rl.entries[drop:])
	clear(rl.entries[kept:])
	rl.entries = rl.entries[:kept]
	return drop
}

// Append is AppendPages without pages.
func (l *Log) Append(ctx context.Context, desc *region.Descriptor, entries ...wire.ReplEntry) error {
	_, err := l.AppendPages(ctx, desc, nil, entries...)
	return err
}

// AppendPages appends entries to the region's log as its leader, sends
// them with pages (the contents they name; the log takes over the frame
// references) to the other listed homes, one message each, and returns
// the followers that acked once every follower answered or ackTimeout
// passed (a deposing reply ends the wait early), not once a majority holds
// them. Entries need only Op and the op's payload fields; Index, Term, and
// Region are stamped here. A single-home region commits at once with no
// network. If fewer than a majority of the home list (counting self)
// acked, the entries commit locally anyway (degraded mode, counted) —
// Khazana favors availability here, and the log-up-to-date election rule
// keeps a lagging standby from winning leadership over a current one.
// Returns ErrNotLeader when another node holds the region's leadership.
func (l *Log) AppendPages(ctx context.Context, desc *region.Descriptor, pages []wire.UpdateItem, entries ...wire.ReplEntry) ([]ktypes.NodeID, error) {
	if len(entries) == 0 {
		wire.ReleaseItems(pages)
		return nil, nil
	}
	rl := l.region(desc.Range.Start)
	// appendMu is held across the follower RPCs below: per-region
	// appends — and so their pages — must replicate in index order, and
	// the quorum wait is the entire point of the critical section.
	rl.appendMu.Lock() //khazana:block-ok serializes per-region appends across quorum RPCs
	defer rl.appendMu.Unlock()

	rl.mu.Lock()
	if rl.leader != l.self {
		// A region with no elected leader is led by its listed primary
		// home by birthright (the normal creation path) — unless this
		// replica granted its current-term vote to someone else, in
		// which case an election is in flight or won elsewhere and a
		// deposed primary must not sneak leadership back.
		if rl.leader == 0 && len(desc.Home) > 0 && desc.Home[0] == l.self &&
			(rl.votedFor == 0 || rl.votedFor == l.self) {
			rl.leader = l.self
			if rl.term == 0 {
				rl.term = 1
			}
		} else {
			rl.mu.Unlock()
			wire.ReleaseItems(pages)
			return nil, ErrNotLeader
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
	commit := rl.commit
	rl.lastAppend = l.now()
	rl.mu.Unlock()
	l.addTail(len(entries))

	start := l.now()
	var followers []ktypes.NodeID
	for _, h := range desc.Home {
		if h != l.self {
			followers = append(followers, h)
		}
	}
	quorum := len(desc.Home)/2 + 1
	needed := quorum - 1 // acks beyond self
	deposedBy, maxTerm, acked := uint64(0), uint64(0), []ktypes.NodeID(nil)
	if needed > 0 && len(followers) > 0 {
		msg := &wire.ReplAppend{
			Region: desc.Range.Start, From: l.self, Term: term,
			PrevIndex: prevIdx, PrevTerm: prevTerm, Commit: commit,
			Entries: entries, Pages: pages,
		}
		//khazana:block-ok per-region appends must replicate in index order; the quorum wait is the critical section's point
		acked, maxTerm = l.replicate(ctx, rl, followers, msg, term)
		if maxTerm > term {
			deposedBy = maxTerm
		} else if len(acked) < needed {
			l.degraded.Add(1)
		}
	} else {
		wire.ReleaseItems(pages)
	}

	rl.mu.Lock()
	if deposedBy > term {
		if rl.term < deposedBy {
			rl.term = deposedBy
		}
		if rl.leader == l.self {
			rl.leader = 0
		}
		rl.mu.Unlock()
		return acked, ErrNotLeader
	}
	var dropped int
	if rl.term == term && rl.leader == l.self {
		dropped = rl.advanceCommitLocked(last)
	}
	rl.mu.Unlock()
	if dropped > 0 {
		l.addTail(-dropped)
	}
	l.commitLat.ObserveSince(start)
	return acked, nil
}

// errLogGap is the one NACK a catch-up repairs.
const errLogGap = "log gap"

// replicate ships one append to every follower in parallel and returns
// the followers that acked (filtered in place from followers) plus the
// highest term seen in replies. A follower that rejects for a log gap has
// stored the append's pages already and is caught up, without them, with
// a state snapshot and the full uncommitted tail in one retry. msg's
// frames are released once no send can still read them.
func (l *Log) replicate(ctx context.Context, rl *regionLog, followers []ktypes.NodeID, msg *wire.ReplAppend, term uint64) ([]ktypes.NodeID, uint64) {
	tctx, cancel := context.WithTimeout(ctx, ackTimeout)
	defer cancel()
	type result struct {
		node ktypes.NodeID
		ok   bool
		term uint64
	}
	ch := make(chan result, len(followers))
	for _, f := range followers {
		f := f
		go func() {
			reply, err := l.send(tctx, f, msg)
			if ack, _ := reply.(*wire.ReplAck); err == nil && ack != nil && !ack.OK && ack.Term <= term && ack.Err == errLogGap {
				// Log gap at the follower: catch it up with a snapshot of
				// the committed state plus the entire uncommitted tail.
				reply, err = l.send(tctx, f, l.catchupMsg(rl, msg, term))
			}
			r := result{node: f}
			if ack, isAck := reply.(*wire.ReplAck); err == nil && isAck {
				r.ok, r.term = ack.OK, ack.Term
			}
			ch <- r
		}()
	}
	acked, maxTerm, answered := followers[:0], uint64(0), 0
collect:
	for answered < len(followers) && maxTerm <= term {
		select {
		case r := <-ch:
			answered++
			if r.ok {
				acked = append(acked, r.node)
			}
			maxTerm = max(maxTerm, r.term)
		case <-tctx.Done():
			break collect
		}
	}
	if answered == len(followers) {
		msg.ReleaseFrames()
		return acked, maxTerm
	}
	go func(left int) { // stragglers of a timeout or a deposing reply
		for ; left > 0; left-- {
			<-ch
		}
		msg.ReleaseFrames()
	}(len(followers) - answered)
	return acked, maxTerm
}

// catchupMsg builds a snapshot-bearing append: committed state cut at
// the commit index plus every retained entry above it.
func (l *Log) catchupMsg(rl *regionLog, base *wire.ReplAppend, term uint64) *wire.ReplAppend {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	e := enc.NewEncoder(256)
	rl.state.EncodeTo(e)
	snapTerm, _ := rl.termAtLocked(rl.commit)
	tail := rl.entries
	if rl.commit > rl.floor {
		tail = rl.entries[rl.commit-rl.floor:]
	}
	return &wire.ReplAppend{
		Region: base.Region, From: l.self, Term: term,
		PrevIndex: rl.commit, PrevTerm: snapTerm, Commit: rl.commit,
		Entries:   append([]wire.ReplEntry(nil), tail...),
		SnapIndex: rl.commit, SnapTerm: snapTerm, SnapState: e.Bytes(),
	}
}

// HandleAppend applies a leader's append, its pages already stored, on a
// follower and returns the ack. Exported for the node's RPC dispatch.
func (l *Log) HandleAppend(m *wire.ReplAppend) *wire.ReplAck {
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

	delta := 0
	// Snapshot install for a follower behind the leader's compaction
	// floor.
	if m.SnapIndex > 0 && len(m.SnapState) > 0 && m.SnapIndex > rl.commit {
		d := enc.NewDecoder(m.SnapState)
		st := DecodeRegionState(d)
		if d.Err() != nil {
			ack := &wire.ReplAck{Term: rl.term, Ack: rl.commit, Err: "bad snapshot"}
			rl.mu.Unlock()
			return ack
		}
		delta -= len(rl.entries)
		rl.state = st
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
		return &wire.ReplAck{Term: rl.term, Ack: li, Err: "log behind"}
	}
	rl.term = m.Term
	rl.votedTerm = m.Term
	rl.votedFor = m.Candidate
	rl.leader = 0
	return &wire.ReplAck{Term: rl.term, Ack: li, VoteGranted: true}
}

// Campaign runs one election round for the region and reports whether
// this node won. Callers retry (the lease must expire before peers
// grant votes against a freshly crashed leader); a majority of the
// descriptor's home list is required, so a two-home region with a dead
// primary cannot elect — the caller falls back to the legacy §3.5
// promotion for that shape.
func (l *Log) Campaign(ctx context.Context, desc *region.Descriptor) bool {
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
	if len(voters) > 0 {
		msg := &wire.ReplPromote{
			Region: desc.Range.Start, Candidate: l.self,
			Term: term, LastIndex: li, LastTerm: lt,
		}
		type result struct {
			granted bool
			term    uint64
		}
		ch := make(chan result, len(voters))
		for _, v := range voters {
			v := v
			go func() {
				reply, err := l.send(ctx, v, msg)
				if ack, ok := reply.(*wire.ReplAck); err == nil && ok {
					ch <- result{granted: ack.VoteGranted, term: ack.Term}
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
		return true
	}
	return false
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
