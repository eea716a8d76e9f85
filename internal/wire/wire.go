// Package wire defines Khazana's inter-node and client-daemon message set
// and its binary framing. Every message implements Msg; Marshal prefixes
// the payload with a 16-bit kind so Unmarshal can dispatch. A message's
// encoding has no optional sections: Unmarshal rejects trailing bytes and
// releases whatever frames the rejected message had decoded.
//
// The message groups mirror the paper's protocols: region descriptor
// lookup (§3.2), consistency-manager traffic for lock grants, fetches,
// invalidations and update pushes (§3.3, Figure 2), cluster membership
// (§3.1), replication pushes for minimum-replica maintenance
// (§3.5), and the client operation set (§2).
package wire

import (
	"fmt"
	"slices"
	"sync"

	"khazana/internal/enc"
	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
)

// Kind identifies a message type on the wire.
type Kind uint16

// Message kinds. Values are part of the wire format; only append. A
// retired kind keeps its line — removing it would renumber every later
// kind — but has no message type, so Unmarshal rejects it as unknown.
const (
	KindAck Kind = iota + 1
	KindPing
	KindPong

	KindRegionLookup
	KindRegionInfo
	KindAttrSet
	KindReserveSpace
	KindSpaceGrant

	KindPageReq       // retired: a single page is a PageReqBatch of one
	KindPageGrant     // retired: answered KindPageReq
	KindInvalidate    // retired: a single page is an InvalidateBatch of one
	KindPageFetch     // retired: a PageReqBatch with Have validates a copy
	KindPageData      // retired: answered KindPageFetch
	KindUpdatePush    // retired: a single page is an UpdateBatch of one
	KindVersionQuery  // retired: a PageFetch with Holds set validates a copy
	KindVersionInfo   // retired: answered KindVersionQuery
	KindReleaseNotify // retired: a single page is a ReleaseBatch of one

	KindReplicaPut
	KindCopysetQuery // retired: no sender
	KindCopysetInfo  // retired: answered KindCopysetQuery

	KindJoin
	KindClusterView
	KindHeartbeat
	KindClusterQuery // retired: the ring replaced the manager's location hints
	KindClusterHint  // retired: answered KindClusterQuery
	KindLeave

	KindCReserve
	KindCReserveResp
	KindCUnreserve
	KindCAllocate
	KindCFree
	KindCLock
	KindCLockResp
	KindCUnlock
	KindCRead
	KindCData
	KindCWrite
	KindCGetAttr
	KindCSetAttr

	KindKVGet
	KindKVPut

	KindMapInsert
	KindMapRemove
	KindMapSetHomes
	KindPromote

	KindObjInvoke
	KindObjResult

	KindMigrate
	KindStatsReq  // retired: StatsQuery carries every counter
	KindStatsResp // retired: answered KindStatsReq

	KindPageReqBatch
	KindPageGrantBatch
	KindReleaseBatch
	KindReleaseBatchResp

	KindStatsQuery
	KindStatsReply
	KindTraced // the trace envelope, not a message: see AppendTraced

	KindUpdateBatch
	KindUpdateBatchResp // retired: an UpdateBatch reply mirrors the batch

	KindSnapshotReqBatch
	KindSnapshotGrantBatch

	KindReplAppend
	KindReplAck
	KindReplPromote

	KindRingLookup
	KindRingReply
	KindRingAnnounce

	KindInvalidateBatch
)

// Msg is a wire message.
type Msg interface {
	Kind() Kind
	encode(e *enc.Encoder)
	decode(d *enc.Decoder)
}

// OneWay reports whether m travels without a reply, because nobody would
// read it: a ReleaseBatch with no dirty page, whose answer could only be
// an error that §3.5 never reflects to the client, and a RingAnnounce,
// which is best effort (a missed owner is repaired by the lookup's
// fallback). Its receiver answers nothing.
func OneWay(m Msg) bool {
	if rb, ok := m.(*ReleaseBatch); ok {
		return !slices.ContainsFunc(rb.Items, func(it ReleaseItem) bool { return it.Dirty })
	}
	_, ok := m.(*RingAnnounce)
	return ok
}

// encoders and decoders recycle the codec handed to Msg.encode and
// Msg.decode (an interface call, so a fresh one per message escapes: an
// allocation per RPC); scratch recycles the buffers Marshal encodes into.
// Entries are pointers so Put does not allocate. No decode method retains
// its Decoder, so one returns to the pool when Unmarshal does.
var (
	encoders = sync.Pool{New: func() any { return new(enc.Encoder) }}
	decoders = sync.Pool{New: func() any { return new(enc.Decoder) }}
	scratch  = sync.Pool{New: func() any { return new([]byte) }}
)

// Marshal serializes a message with its kind prefix into a buffer of
// exactly the encoded size: the message is encoded once into pooled
// scratch space and copied out, so the only allocation is the result.
func Marshal(m Msg) []byte {
	sp := scratch.Get().(*[]byte)
	buf := MarshalAppend((*sp)[:0], m)
	out := make([]byte, len(buf))
	copy(out, buf)
	*sp = buf
	scratch.Put(sp)
	return out
}

// MarshalAppend serializes a message with its kind prefix, appending to
// dst (which may be a pooled transport buffer), and returns the extended
// slice. The encoding is identical to Marshal's.
func MarshalAppend(dst []byte, m Msg) []byte { return MarshalFrames(dst, nil, m) }

// MarshalFrames is MarshalAppend, but with a non-nil frames each non-empty
// page payload goes to *frames (one reference each) instead of behind its
// length prefix: an in-process link hands pages over by reference.
func MarshalFrames(dst []byte, frames *[]*frame.Frame, m Msg) []byte {
	e := encoders.Get().(*enc.Encoder)
	e.Reset(dst, frames)
	e.U16(uint16(m.Kind()))
	m.encode(e)
	out := e.Bytes()
	e.Reset(nil, nil)
	encoders.Put(e)
	return out
}

// Unmarshal parses a message produced by Marshal. A trace envelope is not a
// message: it is rejected as an unknown kind (see UnmarshalRequest).
func Unmarshal(b []byte) (Msg, error) { return UnmarshalFrames(b, nil) }

// UnmarshalFrames parses a message MarshalFrames produced, taking over the
// frames it decodes (and clearing their slots in frames).
func UnmarshalFrames(b []byte, frames []*frame.Frame) (Msg, error) {
	d := decoders.Get().(*enc.Decoder)
	d.Reset(b, frames)
	defer func() {
		d.Reset(nil, nil)
		decoders.Put(d)
	}()
	kind := Kind(d.U16())
	if d.Err() != nil {
		return nil, fmt.Errorf("wire: %w", d.Err())
	}
	factory, ok := factories[kind]
	if !ok {
		return nil, fmt.Errorf("wire: unknown message kind %d", kind)
	}
	m := factory()
	m.decode(d)
	if err := d.Finish(); err != nil {
		Recycle(m)
		return nil, fmt.Errorf("wire: decode kind %d: %w", kind, err)
	}
	return m, nil
}

var factories = map[Kind]func() Msg{
	KindAck:              func() Msg { return &Ack{} },
	KindPing:             func() Msg { return &Ping{} },
	KindPong:             func() Msg { return &Pong{} },
	KindRegionLookup:     func() Msg { return &RegionLookup{} },
	KindRegionInfo:       func() Msg { return &RegionInfo{} },
	KindAttrSet:          func() Msg { return &AttrSet{} },
	KindReserveSpace:     func() Msg { return &ReserveSpace{} },
	KindSpaceGrant:       func() Msg { return &SpaceGrant{} },
	KindReplicaPut:       func() Msg { return &ReplicaPut{} },
	KindJoin:             func() Msg { return &Join{} },
	KindClusterView:      func() Msg { return &ClusterView{} },
	KindHeartbeat:        func() Msg { return &Heartbeat{} },
	KindLeave:            func() Msg { return &Leave{} },
	KindCReserve:         func() Msg { return &CReserve{} },
	KindCReserveResp:     func() Msg { return &CReserveResp{} },
	KindCUnreserve:       func() Msg { return &CUnreserve{} },
	KindCAllocate:        func() Msg { return &CAllocate{} },
	KindCFree:            func() Msg { return &CFree{} },
	KindCLock:            func() Msg { return &CLock{} },
	KindCLockResp:        func() Msg { return &CLockResp{} },
	KindCUnlock:          func() Msg { return &CUnlock{} },
	KindCRead:            func() Msg { return &CRead{} },
	KindCData:            func() Msg { return &CData{} },
	KindCWrite:           func() Msg { return &CWrite{} },
	KindCGetAttr:         func() Msg { return &CGetAttr{} },
	KindCSetAttr:         func() Msg { return &CSetAttr{} },
	KindKVGet:            func() Msg { return &KVGet{} },
	KindKVPut:            func() Msg { return &KVPut{} },
	KindMapInsert:        func() Msg { return &MapInsert{} },
	KindMapRemove:        func() Msg { return &MapRemove{} },
	KindMapSetHomes:      func() Msg { return &MapSetHomes{} },
	KindPromote:          func() Msg { return &Promote{} },
	KindObjInvoke:        func() Msg { return &ObjInvoke{} },
	KindObjResult:        func() Msg { return &ObjResult{} },
	KindMigrate:          func() Msg { return &Migrate{} },
	KindPageReqBatch:     func() Msg { return &PageReqBatch{} },
	KindPageGrantBatch:   func() Msg { return &PageGrantBatch{} },
	KindReleaseBatch:     func() Msg { return &ReleaseBatch{} },
	KindReleaseBatchResp: func() Msg { return &ReleaseBatchResp{} },
	KindStatsQuery:       func() Msg { return &StatsQuery{} },
	KindStatsReply:       func() Msg { return &StatsReply{} },
	KindUpdateBatch:      func() Msg { return &UpdateBatch{} },

	KindSnapshotReqBatch:   func() Msg { return &SnapshotReqBatch{} },
	KindSnapshotGrantBatch: func() Msg { return &SnapshotGrantBatch{} },

	KindReplAppend:  func() Msg { return &ReplAppend{} },
	KindReplAck:     func() Msg { return &ReplAck{} },
	KindReplPromote: func() Msg { return &ReplPromote{} },

	KindRingLookup:   func() Msg { return &RingLookup{} },
	KindRingReply:    func() Msg { return &RingReply{} },
	KindRingAnnounce: func() Msg { return &RingAnnounce{} },

	KindInvalidateBatch: func() Msg { return &InvalidateBatch{} },
}

// TypeNames maps every live kind to prefix plus its message's Go type name
// (e.g. "*wire.Ping"), for callers that label spans or logs per kind and
// want the strings built once rather than formatted per message.
func TypeNames(prefix string) map[Kind]string {
	names := make(map[Kind]string, len(factories))
	for k, factory := range factories {
		names[k] = fmt.Sprintf("%s%T", prefix, factory())
	}
	return names
}

// --- infrastructure -----------------------------------------------------

// Ack is the generic reply carrying an optional error string.
type Ack struct {
	Err string
}

// Kind implements Msg.
func (*Ack) Kind() Kind              { return KindAck }
func (m *Ack) encode(e *enc.Encoder) { e.String(m.Err) }
func (m *Ack) decode(d *enc.Decoder) { m.Err = d.String() }

// Ping probes liveness and measures round-trip time: the sender stamps
// its clock and computes the RTT when the echo comes back.
type Ping struct {
	From ktypes.NodeID
	// SentUnixNano is the sender's clock at transmission.
	SentUnixNano int64
}

// Kind implements Msg.
func (*Ping) Kind() Kind { return KindPing }
func (m *Ping) encode(e *enc.Encoder) {
	e.NodeID(m.From)
	e.I64(m.SentUnixNano)
}
func (m *Ping) decode(d *enc.Decoder) {
	m.From = d.NodeID()
	m.SentUnixNano = d.I64()
}

// Pong answers a Ping, echoing the ping's timestamp so the sender can
// compute the round trip without trusting the remote clock.
type Pong struct {
	From ktypes.NodeID
	// EchoUnixNano returns Ping.SentUnixNano unchanged.
	EchoUnixNano int64
}

// Kind implements Msg.
func (*Pong) Kind() Kind { return KindPong }
func (m *Pong) encode(e *enc.Encoder) {
	e.NodeID(m.From)
	e.I64(m.EchoUnixNano)
}
func (m *Pong) decode(d *enc.Decoder) {
	m.From = d.NodeID()
	m.EchoUnixNano = d.I64()
}

// --- region descriptors ---------------------------------------------------

// RegionLookup asks a node for the descriptor of the region enclosing
// Addr (paper §3.2).
type RegionLookup struct {
	Addr gaddr.Addr
}

// Kind implements Msg.
func (*RegionLookup) Kind() Kind              { return KindRegionLookup }
func (m *RegionLookup) encode(e *enc.Encoder) { e.Addr(m.Addr) }
func (m *RegionLookup) decode(d *enc.Decoder) { m.Addr = d.Addr() }

// RegionInfo carries a region descriptor, or Found=false when the queried
// node does not know the region.
type RegionInfo struct {
	Found bool
	Desc  *region.Descriptor
	Err   string
}

// Kind implements Msg.
func (*RegionInfo) Kind() Kind { return KindRegionInfo }
func (m *RegionInfo) encode(e *enc.Encoder) {
	e.Bool(m.Found)
	if m.Found {
		m.Desc.EncodeTo(e)
	}
	e.String(m.Err)
}
func (m *RegionInfo) decode(d *enc.Decoder) {
	m.Found = d.Bool()
	if m.Found {
		m.Desc = region.DecodeDescriptor(d)
	}
	m.Err = d.String()
}

// AttrSet pushes an updated descriptor to a region's home node.
type AttrSet struct {
	Desc      *region.Descriptor
	Principal ktypes.Principal
}

// Kind implements Msg.
func (*AttrSet) Kind() Kind { return KindAttrSet }
func (m *AttrSet) encode(e *enc.Encoder) {
	m.Desc.EncodeTo(e)
	e.String(string(m.Principal))
}
func (m *AttrSet) decode(d *enc.Decoder) {
	m.Desc = region.DecodeDescriptor(d)
	m.Principal = ktypes.Principal(d.String())
}

// ReserveSpace asks the cluster manager for a large range of unreserved
// address space to manage locally (paper §3.1).
type ReserveSpace struct {
	From ktypes.NodeID
	Size uint64
}

// Kind implements Msg.
func (*ReserveSpace) Kind() Kind { return KindReserveSpace }
func (m *ReserveSpace) encode(e *enc.Encoder) {
	e.NodeID(m.From)
	e.U64(m.Size)
}
func (m *ReserveSpace) decode(d *enc.Decoder) {
	m.From = d.NodeID()
	m.Size = d.U64()
}

// SpaceGrant answers ReserveSpace with a granted range.
type SpaceGrant struct {
	Range gaddr.Range
	Err   string
}

// Kind implements Msg.
func (*SpaceGrant) Kind() Kind { return KindSpaceGrant }
func (m *SpaceGrant) encode(e *enc.Encoder) {
	e.Range(m.Range)
	e.String(m.Err)
}
func (m *SpaceGrant) decode(d *enc.Decoder) {
	m.Range = d.Range()
	m.Err = d.String()
}

// --- consistency traffic --------------------------------------------------

// --- replication ------------------------------------------------------------

// ReplicaPut pushes page copies to another node to satisfy a region's
// minimum replica count (paper §3.5) or to hand a region to a new home:
// a byte-capped chunk of one region's pages in UpdateBatch's item codec.
// The receiver installs every item compare-then-store and answers one Ack.
type ReplicaPut struct {
	From  ktypes.NodeID
	Items []UpdateItem
}

// Kind implements Msg.
func (*ReplicaPut) Kind() Kind { return KindReplicaPut }
func (m *ReplicaPut) encode(e *enc.Encoder) {
	e.NodeID(m.From)
	encodeUpdateItems(e, m.Items)
}
func (m *ReplicaPut) decode(d *enc.Decoder) {
	m.From = d.NodeID()
	m.Items = decodeUpdateItems(d)
}

// --- cluster membership -----------------------------------------------------

// Join announces a node to its cluster manager (paper §3.1: machines can
// dynamically enter and leave Khazana).
type Join struct {
	Node ktypes.NodeID
	// Addr is the node's transport address (empty for in-process nets).
	Addr string
}

// Kind implements Msg.
func (*Join) Kind() Kind { return KindJoin }
func (m *Join) encode(e *enc.Encoder) {
	e.NodeID(m.Node)
	e.String(m.Addr)
}
func (m *Join) decode(d *enc.Decoder) {
	m.Node = d.NodeID()
	m.Addr = d.String()
}

// ClusterView answers Join with current membership.
type ClusterView struct {
	Manager ktypes.NodeID
	Members []ktypes.NodeID
}

// Kind implements Msg.
func (*ClusterView) Kind() Kind { return KindClusterView }
func (m *ClusterView) encode(e *enc.Encoder) {
	e.NodeID(m.Manager)
	e.NodeIDs(m.Members)
}
func (m *ClusterView) decode(d *enc.Decoder) {
	m.Manager = d.NodeID()
	m.Members = d.NodeIDs()
}

// Heartbeat reports a node's liveness to the cluster manager (§3.1),
// which answers with its membership view.
type Heartbeat struct {
	Node ktypes.NodeID
}

// Kind implements Msg.
func (*Heartbeat) Kind() Kind { return KindHeartbeat }
func (m *Heartbeat) encode(e *enc.Encoder) {
	e.NodeID(m.Node)
}
func (m *Heartbeat) decode(d *enc.Decoder) {
	m.Node = d.NodeID()
}

// Leave announces departure from the cluster.
type Leave struct {
	Node ktypes.NodeID
}

// Kind implements Msg.
func (*Leave) Kind() Kind              { return KindLeave }
func (m *Leave) encode(e *enc.Encoder) { e.NodeID(m.Node) }
func (m *Leave) decode(d *enc.Decoder) { m.Node = d.NodeID() }

// --- client operations --------------------------------------------------

// CReserve reserves a contiguous range of global address space (paper §2).
type CReserve struct {
	Size      uint64
	Attrs     region.Attrs
	Principal ktypes.Principal
}

// Kind implements Msg.
func (*CReserve) Kind() Kind { return KindCReserve }
func (m *CReserve) encode(e *enc.Encoder) {
	e.U64(m.Size)
	m.Attrs.EncodeTo(e)
	e.String(string(m.Principal))
}
func (m *CReserve) decode(d *enc.Decoder) {
	m.Size = d.U64()
	m.Attrs = region.DecodeAttrs(d)
	m.Principal = ktypes.Principal(d.String())
}

// CReserveResp answers CReserve.
type CReserveResp struct {
	Start gaddr.Addr
	Err   string
}

// Kind implements Msg.
func (*CReserveResp) Kind() Kind { return KindCReserveResp }
func (m *CReserveResp) encode(e *enc.Encoder) {
	e.Addr(m.Start)
	e.String(m.Err)
}
func (m *CReserveResp) decode(d *enc.Decoder) {
	m.Start = d.Addr()
	m.Err = d.String()
}

// CUnreserve releases a reserved region.
type CUnreserve struct {
	Start     gaddr.Addr
	Principal ktypes.Principal
}

// Kind implements Msg.
func (*CUnreserve) Kind() Kind { return KindCUnreserve }
func (m *CUnreserve) encode(e *enc.Encoder) {
	e.Addr(m.Start)
	e.String(string(m.Principal))
}
func (m *CUnreserve) decode(d *enc.Decoder) {
	m.Start = d.Addr()
	m.Principal = ktypes.Principal(d.String())
}

// CAllocate allocates physical storage for a reserved region.
type CAllocate struct {
	Start     gaddr.Addr
	Principal ktypes.Principal
}

// Kind implements Msg.
func (*CAllocate) Kind() Kind { return KindCAllocate }
func (m *CAllocate) encode(e *enc.Encoder) {
	e.Addr(m.Start)
	e.String(string(m.Principal))
}
func (m *CAllocate) decode(d *enc.Decoder) {
	m.Start = d.Addr()
	m.Principal = ktypes.Principal(d.String())
}

// CFree releases a region's physical storage.
type CFree struct {
	Start     gaddr.Addr
	Principal ktypes.Principal
}

// Kind implements Msg.
func (*CFree) Kind() Kind { return KindCFree }
func (m *CFree) encode(e *enc.Encoder) {
	e.Addr(m.Start)
	e.String(string(m.Principal))
}
func (m *CFree) decode(d *enc.Decoder) {
	m.Start = d.Addr()
	m.Principal = ktypes.Principal(d.String())
}

// CLock locks part of a region in a specified mode, returning a lock
// context (paper §2).
type CLock struct {
	Range     gaddr.Range
	Mode      ktypes.LockMode
	Principal ktypes.Principal
}

// Kind implements Msg.
func (*CLock) Kind() Kind { return KindCLock }
func (m *CLock) encode(e *enc.Encoder) {
	e.Range(m.Range)
	e.U8(uint8(m.Mode))
	e.String(string(m.Principal))
}
func (m *CLock) decode(d *enc.Decoder) {
	m.Range = d.Range()
	m.Mode = ktypes.LockMode(d.U8())
	m.Principal = ktypes.Principal(d.String())
}

// CLockResp answers CLock with the lock context identifier.
type CLockResp struct {
	LockID uint64
	Err    string
}

// Kind implements Msg.
func (*CLockResp) Kind() Kind { return KindCLockResp }
func (m *CLockResp) encode(e *enc.Encoder) {
	e.U64(m.LockID)
	e.String(m.Err)
}
func (m *CLockResp) decode(d *enc.Decoder) {
	m.LockID = d.U64()
	m.Err = d.String()
}

// CUnlock releases a lock context.
type CUnlock struct {
	LockID uint64
}

// Kind implements Msg.
func (*CUnlock) Kind() Kind              { return KindCUnlock }
func (m *CUnlock) encode(e *enc.Encoder) { e.U64(m.LockID) }
func (m *CUnlock) decode(d *enc.Decoder) { m.LockID = d.U64() }

// CRead reads a subrange of a locked region by presenting the lock
// context.
type CRead struct {
	LockID uint64
	Addr   gaddr.Addr
	Len    uint64
}

// Kind implements Msg.
func (*CRead) Kind() Kind { return KindCRead }
func (m *CRead) encode(e *enc.Encoder) {
	e.U64(m.LockID)
	e.Addr(m.Addr)
	e.U64(m.Len)
}
func (m *CRead) decode(d *enc.Decoder) {
	m.LockID = d.U64()
	m.Addr = d.Addr()
	m.Len = d.U64()
}

// CData answers CRead or KVGet.
type CData struct {
	Data []byte
	Err  string
}

// Kind implements Msg.
func (*CData) Kind() Kind { return KindCData }
func (m *CData) encode(e *enc.Encoder) {
	e.Bytes32(m.Data)
	e.String(m.Err)
}
func (m *CData) decode(d *enc.Decoder) {
	m.Data = d.Bytes32()
	m.Err = d.String()
}

// CWrite writes a subrange of a locked region.
type CWrite struct {
	LockID uint64
	Addr   gaddr.Addr
	Data   []byte
}

// Kind implements Msg.
func (*CWrite) Kind() Kind { return KindCWrite }
func (m *CWrite) encode(e *enc.Encoder) {
	e.U64(m.LockID)
	e.Addr(m.Addr)
	e.Bytes32(m.Data)
}
func (m *CWrite) decode(d *enc.Decoder) {
	m.LockID = d.U64()
	m.Addr = d.Addr()
	m.Data = d.Bytes32()
}

// CGetAttr fetches a region's attributes.
type CGetAttr struct {
	Addr gaddr.Addr
}

// Kind implements Msg.
func (*CGetAttr) Kind() Kind              { return KindCGetAttr }
func (m *CGetAttr) encode(e *enc.Encoder) { e.Addr(m.Addr) }
func (m *CGetAttr) decode(d *enc.Decoder) { m.Addr = d.Addr() }

// CSetAttr updates a region's attributes.
type CSetAttr struct {
	Start     gaddr.Addr
	Attrs     region.Attrs
	Principal ktypes.Principal
}

// Kind implements Msg.
func (*CSetAttr) Kind() Kind { return KindCSetAttr }
func (m *CSetAttr) encode(e *enc.Encoder) {
	e.Addr(m.Start)
	m.Attrs.EncodeTo(e)
	e.String(string(m.Principal))
}
func (m *CSetAttr) decode(d *enc.Decoder) {
	m.Start = d.Addr()
	m.Attrs = region.DecodeAttrs(d)
	m.Principal = ktypes.Principal(d.String())
}

// --- baseline comparator ------------------------------------------------

// KVGet reads from the hand-coded central-server baseline store.
type KVGet struct {
	Key gaddr.Addr
	Len uint64
	Off uint64
}

// Kind implements Msg.
func (*KVGet) Kind() Kind { return KindKVGet }
func (m *KVGet) encode(e *enc.Encoder) {
	e.Addr(m.Key)
	e.U64(m.Len)
	e.U64(m.Off)
}
func (m *KVGet) decode(d *enc.Decoder) {
	m.Key = d.Addr()
	m.Len = d.U64()
	m.Off = d.U64()
}

// KVPut writes to the baseline store.
type KVPut struct {
	Key  gaddr.Addr
	Off  uint64
	Data []byte
}

// Kind implements Msg.
func (*KVPut) Kind() Kind { return KindKVPut }
func (m *KVPut) encode(e *enc.Encoder) {
	e.Addr(m.Key)
	e.U64(m.Off)
	e.Bytes32(m.Data)
}
func (m *KVPut) decode(d *enc.Decoder) {
	m.Key = d.Addr()
	m.Off = d.U64()
	m.Data = d.Bytes32()
}

// --- address map mutations (routed to the map region's home) -------------

// MapInsert records a reserved region in the address map tree.
type MapInsert struct {
	Range gaddr.Range
	Homes []ktypes.NodeID
}

// Kind implements Msg.
func (*MapInsert) Kind() Kind { return KindMapInsert }
func (m *MapInsert) encode(e *enc.Encoder) {
	e.Range(m.Range)
	e.NodeIDs(m.Homes)
}
func (m *MapInsert) decode(d *enc.Decoder) {
	m.Range = d.Range()
	m.Homes = d.NodeIDs()
}

// MapRemove deletes a region from the address map (unreserve).
type MapRemove struct {
	Start gaddr.Addr
}

// Kind implements Msg.
func (*MapRemove) Kind() Kind              { return KindMapRemove }
func (m *MapRemove) encode(e *enc.Encoder) { e.Addr(m.Start) }
func (m *MapRemove) decode(d *enc.Decoder) { m.Start = d.Addr() }

// MapSetHomes updates a region's home list in the address map (replica
// migration or failover).
type MapSetHomes struct {
	Start gaddr.Addr
	Homes []ktypes.NodeID
}

// Kind implements Msg.
func (*MapSetHomes) Kind() Kind { return KindMapSetHomes }
func (m *MapSetHomes) encode(e *enc.Encoder) {
	e.Addr(m.Start)
	e.NodeIDs(m.Homes)
}
func (m *MapSetHomes) decode(d *enc.Decoder) {
	m.Start = d.Addr()
	m.Homes = d.NodeIDs()
}

// Promote asks a secondary home node to take over as a region's primary
// home after the old primary failed (§3.5 failure handling). The reply is
// a RegionInfo carrying the promoted descriptor.
type Promote struct {
	Start gaddr.Addr
	From  ktypes.NodeID
}

// Kind implements Msg.
func (*Promote) Kind() Kind { return KindPromote }
func (m *Promote) encode(e *enc.Encoder) {
	e.Addr(m.Start)
	e.NodeID(m.From)
}
func (m *Promote) decode(d *enc.Decoder) {
	m.Start = d.Addr()
	m.From = d.NodeID()
}

// --- distributed object runtime (kobj) -----------------------------------

// ObjInvoke asks a peer's object runtime to invoke a method on an object
// instantiated there (§4.2: "perform a remote invocation of the object on
// a node where it is already physically instantiated").
type ObjInvoke struct {
	Ref    gaddr.Addr
	Method string
	Args   []byte
}

// Kind implements Msg.
func (*ObjInvoke) Kind() Kind { return KindObjInvoke }
func (m *ObjInvoke) encode(e *enc.Encoder) {
	e.Addr(m.Ref)
	e.String(m.Method)
	e.Bytes32(m.Args)
}
func (m *ObjInvoke) decode(d *enc.Decoder) {
	m.Ref = d.Addr()
	m.Method = d.String()
	m.Args = d.Bytes32()
}

// ObjResult answers ObjInvoke.
type ObjResult struct {
	Result []byte
	Err    string
}

// Kind implements Msg.
func (*ObjResult) Kind() Kind { return KindObjResult }
func (m *ObjResult) encode(e *enc.Encoder) {
	e.Bytes32(m.Result)
	e.String(m.Err)
}
func (m *ObjResult) decode(d *enc.Decoder) {
	m.Result = d.Bytes32()
	m.Err = d.String()
}

// --- migration and introspection ------------------------------------------

// Migrate asks a region's home to hand the primary-home role to NewHome
// (§7 future work: migration and replication policies; the mechanism
// lives here, policies drive it).
type Migrate struct {
	Start     gaddr.Addr
	NewHome   ktypes.NodeID
	Principal ktypes.Principal
}

// Kind implements Msg.
func (*Migrate) Kind() Kind { return KindMigrate }
func (m *Migrate) encode(e *enc.Encoder) {
	e.Addr(m.Start)
	e.NodeID(m.NewHome)
	e.String(string(m.Principal))
}
func (m *Migrate) decode(d *enc.Decoder) {
	m.Start = d.Addr()
	m.NewHome = d.NodeID()
	m.Principal = ktypes.Principal(d.String())
}

// --- batched consistency traffic ------------------------------------------

// PageReqBatch asks a home node for lock credentials on a set of pages in
// one round trip (Figure 2, step 6, amortized over the set; a single page
// is a batch of one), or under a protocol whose locks are local, for
// current copies. Pages and Modes are parallel vectors; the home
// consults its directory state, performs any needed invalidations, and
// answers every page in one PageGrantBatch. Have, nil when nothing is
// held, is parallel too: each held copy's version plus one, 0 for none.
type PageReqBatch struct {
	Pages     []gaddr.Addr
	Modes     []ktypes.LockMode
	Requester ktypes.NodeID
	Have      []uint64
}

// Kind implements Msg.
func (*PageReqBatch) Kind() Kind { return KindPageReqBatch }
func (m *PageReqBatch) encode(e *enc.Encoder) {
	e.U16(uint16(len(m.Pages)))
	for i, p := range m.Pages {
		e.Addr(p)
		e.U8(uint8(m.Modes[i]))
	}
	e.NodeID(m.Requester)
	e.Bool(m.Have != nil)
	for _, v := range m.Have {
		e.U64(v)
	}
}
func (m *PageReqBatch) decode(d *enc.Decoder) {
	n := int(d.U16())
	// A hostile count must not size an allocation; a page is 17 bytes.
	if n > d.Remaining()/17 {
		d.Fail(enc.ErrTruncated)
		return
	}
	switch { // a small batch's Pages and Modes share one object
	case n == 0:
	case n <= 4:
		v := new(struct {
			p [4]gaddr.Addr
			m [4]ktypes.LockMode
		})
		m.Pages, m.Modes = v.p[:0:n], v.m[:0:n]
	case n <= 16:
		v := new(struct {
			p [16]gaddr.Addr
			m [16]ktypes.LockMode
		})
		m.Pages, m.Modes = v.p[:0:n], v.m[:0:n]
	default:
		m.Pages, m.Modes = make([]gaddr.Addr, 0, n), make([]ktypes.LockMode, 0, n)
	}
	for range n {
		m.Pages = append(m.Pages, d.Addr())
		m.Modes = append(m.Modes, ktypes.LockMode(d.U8()))
	}
	m.Requester = d.NodeID()
	if d.Bool() && n > 0 {
		m.Have = make([]uint64, n)
		for i := range m.Have {
			m.Have[i] = d.U64()
		}
	}
}

// PageGrantItem is the per-page status inside a PageGrantBatch: lock
// credentials and a copy of the page (Figure 2, steps 7-10), or Current:
// no bytes, because the copy advertised in Have is the page's.
type PageGrantItem struct {
	OK      bool
	Current bool
	// Owner is the page's owner after the grant.
	Owner   ktypes.NodeID
	Data    []byte
	Version uint64
	Err     string

	// dataFrame, when non-nil, backs Data with a refcounted page frame
	// (see frame.go); it is never encoded.
	dataFrame *frame.Frame
}

// PageGrantBatch answers PageReqBatch with one grant per requested page,
// in request order.
type PageGrantBatch struct {
	Grants []PageGrantItem
}

// Kind implements Msg.
func (*PageGrantBatch) Kind() Kind { return KindPageGrantBatch }
func (m *PageGrantBatch) encode(e *enc.Encoder) {
	e.U16(uint16(len(m.Grants)))
	for _, g := range m.Grants {
		e.Bool(g.OK)
		e.Bool(g.Current)
		e.Payload32(g.dataFrame, g.Data)
		e.U64(g.Version)
		e.NodeID(g.Owner)
		e.String(g.Err)
	}
}
func (m *PageGrantBatch) decode(d *enc.Decoder) {
	n := int(d.U16())
	if d.Err() != nil {
		return
	}
	if n > 0 {
		m.Grants = make([]PageGrantItem, 0, n)
		for i := 0; i < n; i++ {
			var g PageGrantItem
			g.OK = d.Bool()
			g.Current = d.Bool()
			g.dataFrame = d.Bytes32Frame()
			g.Version = d.U64()
			g.Owner = d.NodeID()
			g.Err = d.String()
			if d.Err() != nil {
				if g.dataFrame != nil {
					g.dataFrame.Release()
				}
				return
			}
			stamp(&g.dataFrame, &g.Data, g.Version)
			m.Grants = append(m.Grants, g)
		}
	}
}

// ReleaseItem is one page release inside a ReleaseBatch.
type ReleaseItem struct {
	Page    gaddr.Addr
	Mode    ktypes.LockMode
	Dirty   bool
	Data    []byte
	Version uint64

	// dataFrame, when non-nil, backs Data with a refcounted page frame
	// (see frame.go); it is never encoded.
	dataFrame *frame.Frame
}

// ReleaseBatch pushes several lock releases (with dirty contents where the
// protocol defers propagation to release time) to a home node in one RPC.
type ReleaseBatch struct {
	From  ktypes.NodeID
	Items []ReleaseItem
}

// Kind implements Msg.
func (*ReleaseBatch) Kind() Kind { return KindReleaseBatch }
func (m *ReleaseBatch) encode(e *enc.Encoder) {
	e.NodeID(m.From)
	e.U16(uint16(len(m.Items)))
	for _, it := range m.Items {
		e.Addr(it.Page)
		e.U8(uint8(it.Mode))
		e.Bool(it.Dirty)
		e.Payload32(it.dataFrame, it.Data)
		e.U64(it.Version)
	}
}
func (m *ReleaseBatch) decode(d *enc.Decoder) {
	m.From = d.NodeID()
	n := int(d.U16())
	if d.Err() != nil || n == 0 {
		return
	}
	m.Items = make([]ReleaseItem, 0, n)
	for i := 0; i < n; i++ {
		var it ReleaseItem
		it.Page = d.Addr()
		it.Mode = ktypes.LockMode(d.U8())
		it.Dirty = d.Bool()
		it.dataFrame = d.Bytes32Frame()
		it.Version = d.U64()
		if d.Err() != nil {
			if it.dataFrame != nil {
				it.dataFrame.Release()
			}
			return
		}
		stamp(&it.dataFrame, &it.Data, it.Version)
		m.Items = append(m.Items, it)
	}
}

// ReleaseBatchResp answers ReleaseBatch with a per-item error string in
// request order; "" means that release was applied. An empty list means
// every page was released: a home lists errors only when a page fails.
type ReleaseBatchResp struct {
	Errs []string
}

// Kind implements Msg.
func (*ReleaseBatchResp) Kind() Kind { return KindReleaseBatchResp }
func (m *ReleaseBatchResp) encode(e *enc.Encoder) {
	e.U16(uint16(len(m.Errs)))
	for _, s := range m.Errs {
		e.String(s)
	}
}
func (m *ReleaseBatchResp) decode(d *enc.Decoder) {
	n := int(d.U16())
	if d.Err() != nil || n == 0 {
		return
	}
	m.Errs = make([]string, 0, n)
	for i := 0; i < n; i++ {
		s := d.String()
		if d.Err() != nil {
			return
		}
		m.Errs = append(m.Errs, s)
	}
}

// UpdateItem is one page update inside an UpdateBatch, propagating new page
// contents under the release and eventual protocols (§3.3: CMs inform peers
// of changes, which eventually update their replicas) and CREW's
// write-through to secondary homes.
type UpdateItem struct {
	Page    gaddr.Addr
	Data    []byte
	Version uint64
	// Origin is the version's writer. Under the eventual protocol
	// (Version, Origin) orders concurrent writes: last writer wins.
	Origin ktypes.NodeID

	// dataFrame, when non-nil, backs Data with a refcounted page frame
	// (see frame.go); it is never encoded.
	dataFrame *frame.Frame
}

// UpdateBatch groups the page updates bound for one destination into a
// single RPC: a release or eventual write's push home, eventual gossip
// rounds, dirty-page eviction, and the §3.5 background retry drain. Its
// reply is an UpdateBatch mirroring it item for item with the receiver's
// state of each page: version and origin, and the receiver's bytes only
// where its (version, origin) beats the pushed one.
type UpdateBatch struct {
	From  ktypes.NodeID
	Items []UpdateItem
}

// Kind implements Msg.
func (*UpdateBatch) Kind() Kind { return KindUpdateBatch }
func (m *UpdateBatch) encode(e *enc.Encoder) {
	e.NodeID(m.From)
	encodeUpdateItems(e, m.Items)
}
func (m *UpdateBatch) decode(d *enc.Decoder) {
	m.From = d.NodeID()
	m.Items = decodeUpdateItems(d)
}

// encodeUpdateItems writes the item codec UpdateBatch, ReplicaPut and
// ReplAppend's page trailer share: a count, then page, contents, version and origin.
func encodeUpdateItems(e *enc.Encoder, items []UpdateItem) {
	e.U16(uint16(len(items)))
	for _, it := range items {
		e.Addr(it.Page)
		e.Payload32(it.dataFrame, it.Data)
		e.U64(it.Version)
		e.NodeID(it.Origin)
	}
}

// decodeUpdateItems reads them back into version-stamped pooled frames. On
// an error it returns the complete items, which Unmarshal's Recycle frees.
func decodeUpdateItems(d *enc.Decoder) []UpdateItem {
	n := int(d.U16())
	if d.Err() != nil || n == 0 {
		return nil
	}
	items := make([]UpdateItem, 0, n)
	for i := 0; i < n; i++ {
		var it UpdateItem
		it.Page = d.Addr()
		it.dataFrame = d.Bytes32Frame()
		it.Version = d.U64()
		it.Origin = d.NodeID()
		if d.Err() != nil {
			if it.dataFrame != nil {
				it.dataFrame.Release()
			}
			return items
		}
		stamp(&it.dataFrame, &it.Data, it.Version)
		items = append(items, it)
	}
	return items
}

// InvalidateItem names one page inside an InvalidateBatch and the version
// the home held when it revoked the copy.
type InvalidateItem struct {
	Page    gaddr.Addr
	Version uint64
}

// InvalidateBatch tells a node to drop its copies of a set of pages because
// NewOwner is taking exclusive ownership (Figure 2, step 10): one RPC per
// sharer covers every page of a write grant or of a region being freed.
// The reply is an Ack. The count is 32-bit, as a freed region can hold more
// pages than the 16-bit grant batches.
type InvalidateBatch struct {
	NewOwner ktypes.NodeID
	Items    []InvalidateItem
}

// Kind implements Msg.
func (*InvalidateBatch) Kind() Kind { return KindInvalidateBatch }
func (m *InvalidateBatch) encode(e *enc.Encoder) {
	e.NodeID(m.NewOwner)
	e.U32(uint32(len(m.Items)))
	for _, it := range m.Items {
		e.Addr(it.Page)
		e.U64(it.Version)
	}
}
func (m *InvalidateBatch) decode(d *enc.Decoder) {
	m.NewOwner = d.NodeID()
	n := int(d.U32())
	if d.Err() != nil || n == 0 {
		return
	}
	// A hostile count must not size the allocation; an item is 24 bytes.
	if n > d.Remaining()/24 {
		d.Fail(enc.ErrTruncated)
		return
	}
	m.Items = make([]InvalidateItem, n)
	for i := range m.Items {
		m.Items[i] = InvalidateItem{Page: d.Addr(), Version: d.U64()}
	}
}

// SnapshotReqBatch asks a home node for snapshot copies of several pages
// in one round trip. Unlike PageReqBatch it confers no lock: the home
// answers immediately from the latest committed version of each page (or
// an older retained version when Epoch pins one), without waiting on or
// invalidating any writer's exclusive hold. Epoch 0 asks the home to pick
// its current publish epoch; a non-zero Epoch pins the consistent cut a
// multi-page snapshot context established on its first read.
type SnapshotReqBatch struct {
	Pages     []gaddr.Addr
	Epoch     uint64
	Requester ktypes.NodeID
}

// Kind implements Msg.
func (*SnapshotReqBatch) Kind() Kind { return KindSnapshotReqBatch }
func (m *SnapshotReqBatch) encode(e *enc.Encoder) {
	e.U16(uint16(len(m.Pages)))
	for _, p := range m.Pages {
		e.Addr(p)
	}
	e.U64(m.Epoch)
	e.NodeID(m.Requester)
}
func (m *SnapshotReqBatch) decode(d *enc.Decoder) {
	n := int(d.U16())
	if d.Err() == nil && n > 0 {
		m.Pages = make([]gaddr.Addr, 0, n)
		for i := 0; i < n; i++ {
			p := d.Addr()
			if d.Err() != nil {
				return
			}
			m.Pages = append(m.Pages, p)
		}
	}
	m.Epoch = d.U64()
	m.Requester = d.NodeID()
}

// SnapshotItem is the per-page answer inside a SnapshotGrantBatch: a
// committed copy of the page and the version it was committed at.
type SnapshotItem struct {
	OK      bool
	Data    []byte
	Version uint64
	Err     string

	// dataFrame, when non-nil, backs Data with a refcounted page frame
	// (see frame.go); it is never encoded.
	dataFrame *frame.Frame
}

// SnapshotGrantBatch answers SnapshotReqBatch with one item per requested
// page, in request order, plus the publish epoch the answers were cut at —
// the epoch a snapshot context pins for its subsequent reads.
type SnapshotGrantBatch struct {
	Epoch uint64
	Items []SnapshotItem
}

// Kind implements Msg.
func (*SnapshotGrantBatch) Kind() Kind { return KindSnapshotGrantBatch }
func (m *SnapshotGrantBatch) encode(e *enc.Encoder) {
	e.U64(m.Epoch)
	e.U16(uint16(len(m.Items)))
	for _, it := range m.Items {
		e.Bool(it.OK)
		e.Payload32(it.dataFrame, it.Data)
		e.U64(it.Version)
		e.String(it.Err)
	}
}
func (m *SnapshotGrantBatch) decode(d *enc.Decoder) {
	m.Epoch = d.U64()
	n := int(d.U16())
	if d.Err() != nil || n == 0 {
		return
	}
	m.Items = make([]SnapshotItem, 0, n)
	for i := 0; i < n; i++ {
		var it SnapshotItem
		it.OK = d.Bool()
		it.dataFrame = d.Bytes32Frame()
		it.Version = d.U64()
		it.Err = d.String()
		if d.Err() != nil {
			if it.dataFrame != nil {
				it.dataFrame.Release()
			}
			return
		}
		stamp(&it.dataFrame, &it.Data, it.Version)
		m.Items = append(m.Items, it)
	}
}
