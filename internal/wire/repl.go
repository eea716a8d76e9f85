// Replicated-log traffic for region home state (internal/replog).
//
// Each CREW home drives a compact majority-replicated command log with
// region-metadata deltas: ownership grants at release boundaries,
// copyset changes, page-directory version updates, publish-epoch
// advances, and home-list changes. ReplAppend carries entries (and,
// for far-behind followers, a state snapshot) from the leader to its
// standbys, a release's with the released pages' bytes; ReplAck answers
// both appends and votes; ReplPromote is a
// standby's election request after the leader's lease expires.
//
// PrevIndex/PrevTerm carry the Raft-style log-consistency check: a
// follower accepts entries only when it holds the preceding entry at
// the same term, so a leader change can never splice divergent
// uncommitted suffixes together silently.
package wire

import (
	"khazana/internal/enc"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
)

// Replicated-log entry operations. Values are part of the wire format;
// only append.
const (
	// ReplOpRelease records a write release committed at the home: the
	// page's new version (Val), the releasing node (Node) which owns the
	// page afterwards, the home's publish epoch after the release (Aux),
	// and the page's copyset after the release (Nodes).
	ReplOpRelease uint8 = iota + 1
	// ReplOpHomes records a home-list change (replica maintenance or
	// failover): the new home list in order (Nodes, primary first) and
	// the descriptor epoch it was installed at (Val).
	ReplOpHomes
)

// ReplEntry is one command in a region's replicated metadata log.
// Fields beyond Index/Term/Region are per-op (see the ReplOp* docs);
// unused fields encode as zero values.
type ReplEntry struct {
	Index  uint64
	Term   uint64
	Region gaddr.Addr
	Op     uint8
	Page   gaddr.Addr
	Node   ktypes.NodeID
	Nodes  []ktypes.NodeID
	Val    uint64
	Aux    uint64
}

// EncodeTo appends the entry's encoding to e.
func (en *ReplEntry) EncodeTo(e *enc.Encoder) {
	e.U64(en.Index)
	e.U64(en.Term)
	e.Addr(en.Region)
	e.U8(en.Op)
	e.Addr(en.Page)
	e.NodeID(en.Node)
	e.NodeIDs(en.Nodes)
	e.U64(en.Val)
	e.U64(en.Aux)
}

// replEntryMinLen is the encoded size of an entry with an empty copyset.
const replEntryMinLen = 71

// DecodeReplEntries reads n entries from d. Their copysets share one array,
// each capped (a[i:j:j]) so that an append to one entry's Nodes copies it
// instead of writing into the next entry's; copysets are never modified in
// place.
func DecodeReplEntries(d *enc.Decoder, n int) []ReplEntry {
	if d.Remaining() < n*replEntryMinLen {
		d.Fail(enc.ErrTruncated)
	}
	if n == 0 || d.Err() != nil {
		return nil
	}
	out := make([]ReplEntry, n)
	var ids []ktypes.NodeID
	for i := range out {
		en := &out[i]
		en.Index = d.U64()
		en.Term = d.U64()
		en.Region = d.Addr()
		en.Op = d.U8()
		en.Page = d.Addr()
		en.Node = d.NodeID()
		from := len(ids)
		if ids = d.AppendNodeIDs(ids, n-1-i); len(ids) > from {
			en.Nodes = ids[from:len(ids):len(ids)]
		}
		en.Val = d.U64()
		en.Aux = d.U64()
	}
	return out
}

// ReplAppend replicates log entries from a region's leader (primary
// home) to a standby, doubling as the leader's lease heartbeat when
// Entries is empty. PrevIndex names the entry immediately preceding
// Entries in the leader's log; a follower that does not hold PrevIndex
// rejects the append (OK=false, Ack=its last index) and the leader
// retries further back or ships a snapshot. Commit is the leader's
// commit index. When SnapIndex is non-zero the append carries a full
// region-state snapshot (SnapState, encoded replog.RegionState) cut at
// SnapIndex/SnapTerm for a follower behind the leader's compacted tail.
// Pages, the trailer after SnapState (UpdateBatch's item codec), holds the
// bytes a release's entries name; the follower stores them first.
type ReplAppend struct {
	Region    gaddr.Addr
	From      ktypes.NodeID
	Term      uint64
	PrevIndex uint64
	PrevTerm  uint64
	Commit    uint64
	Entries   []ReplEntry
	SnapIndex uint64
	SnapTerm  uint64
	SnapState []byte
	Pages     []UpdateItem
}

// Kind implements Msg.
func (*ReplAppend) Kind() Kind { return KindReplAppend }
func (m *ReplAppend) encode(e *enc.Encoder) {
	e.Addr(m.Region)
	e.NodeID(m.From)
	e.U64(m.Term)
	e.U64(m.PrevIndex)
	e.U64(m.PrevTerm)
	e.U64(m.Commit)
	e.U16(uint16(len(m.Entries)))
	for i := range m.Entries {
		m.Entries[i].EncodeTo(e)
	}
	e.U64(m.SnapIndex)
	e.U64(m.SnapTerm)
	e.Bytes32(m.SnapState)
	encodeUpdateItems(e, m.Pages)
}
func (m *ReplAppend) decode(d *enc.Decoder) {
	m.Region = d.Addr()
	m.From = d.NodeID()
	m.Term = d.U64()
	m.PrevIndex = d.U64()
	m.PrevTerm = d.U64()
	m.Commit = d.U64()
	m.Entries = DecodeReplEntries(d, int(d.U16()))
	m.SnapIndex = d.U64()
	m.SnapTerm = d.U64()
	m.SnapState = d.Bytes32()
	m.Pages = decodeUpdateItems(d)
}

// ReplAck answers both ReplAppend and ReplPromote. For appends, OK
// reports whether the follower accepted the entries and Ack is its
// match index (last log index known identical to the leader's). For
// votes, VoteGranted reports the voter's decision and Ack its last log
// index. Term is always the responder's current term so a stale leader
// or candidate can step down.
type ReplAck struct {
	Term        uint64
	Ack         uint64
	OK          bool
	VoteGranted bool
	Err         string
}

// Kind implements Msg.
func (*ReplAck) Kind() Kind { return KindReplAck }
func (m *ReplAck) encode(e *enc.Encoder) {
	e.U64(m.Term)
	e.U64(m.Ack)
	e.Bool(m.OK)
	e.Bool(m.VoteGranted)
	e.String(m.Err)
}
func (m *ReplAck) decode(d *enc.Decoder) {
	m.Term = d.U64()
	m.Ack = d.U64()
	m.OK = d.Bool()
	m.VoteGranted = d.Bool()
	m.Err = d.String()
}

// ReplPromote is a standby's vote request: Candidate asks a fellow
// home-list member to elect it leader for Region in Term. The voter
// grants iff the term is new to it, the candidate's log is at least as
// up to date (LastTerm/LastIndex), and the current leader's lease has
// expired — the one-election failover path that replaces the ad-hoc
// §3.5 promotion walk for log-replicated regions.
type ReplPromote struct {
	Region    gaddr.Addr
	Candidate ktypes.NodeID
	Term      uint64
	LastIndex uint64
	LastTerm  uint64
}

// Kind implements Msg.
func (*ReplPromote) Kind() Kind { return KindReplPromote }
func (m *ReplPromote) encode(e *enc.Encoder) {
	e.Addr(m.Region)
	e.NodeID(m.Candidate)
	e.U64(m.Term)
	e.U64(m.LastIndex)
	e.U64(m.LastTerm)
}
func (m *ReplPromote) decode(d *enc.Decoder) {
	m.Region = d.Addr()
	m.Candidate = d.NodeID()
	m.Term = d.U64()
	m.LastIndex = d.U64()
	m.LastTerm = d.U64()
}
