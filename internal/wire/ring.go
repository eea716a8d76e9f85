package wire

import (
	"khazana/internal/enc"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
)

// Ring messages implement the consistent-hashing descriptor partition
// (internal/ring): a cold lookup hashes the faulting address to its
// bucket owners and resolves the descriptor in one RPC hop instead of
// walking the §3.1 address-map tree.

// RingLookup asks a ring owner for the descriptor of the region
// containing Addr, out of the owner's authoritative ring table.
type RingLookup struct {
	Addr gaddr.Addr
	From ktypes.NodeID
}

// Kind implements Msg.
func (*RingLookup) Kind() Kind { return KindRingLookup }
func (m *RingLookup) encode(e *enc.Encoder) {
	e.Addr(m.Addr)
	e.NodeID(m.From)
}
func (m *RingLookup) decode(d *enc.Decoder) {
	m.Addr = d.Addr()
	m.From = d.NodeID()
}

// RingReply answers a RingLookup. Found=false means the owner's table
// has no region containing the address (the caller falls back to the
// address map tree walk and repairs the ring).
type RingReply struct {
	Found bool
	Desc  *region.Descriptor
	Err   string
}

// Kind implements Msg.
func (*RingReply) Kind() Kind { return KindRingReply }
func (m *RingReply) encode(e *enc.Encoder) {
	e.Bool(m.Found)
	if m.Found {
		m.Desc.EncodeTo(e)
	}
	e.String(m.Err)
}
func (m *RingReply) decode(d *enc.Decoder) {
	m.Found = d.Bool()
	if m.Found {
		m.Desc = region.DecodeDescriptor(d)
	}
	m.Err = d.String()
}

// Ring announce operations.
const (
	// RingOpPut installs (or refreshes) a descriptor in the owner's table.
	RingOpPut uint8 = 1
	// RingOpWithdraw removes a descriptor from an owner that lost the
	// region's partition in a rebalance; the region still exists.
	RingOpWithdraw uint8 = 2
	// RingOpDestroy removes a destroyed region's descriptor for good: the
	// owner also refuses any later Put for that start.
	RingOpDestroy uint8 = 3
)

// RingAnnounce pushes a descriptor change to a bucket owner: sent on
// region create, destroy, home change (including replog failover), and
// rebalance after membership change. Put carries the descriptor;
// Withdraw and Destroy carry only the region start. It is one-way
// (OneWay): owners send no reply.
type RingAnnounce struct {
	Op    uint8
	Desc  *region.Descriptor // nil for Withdraw and Destroy
	Start gaddr.Addr
	From  ktypes.NodeID
}

// Kind implements Msg.
func (*RingAnnounce) Kind() Kind { return KindRingAnnounce }
func (m *RingAnnounce) encode(e *enc.Encoder) {
	e.U8(m.Op)
	e.Bool(m.Desc != nil)
	if m.Desc != nil {
		m.Desc.EncodeTo(e)
	}
	e.Addr(m.Start)
	e.NodeID(m.From)
}
func (m *RingAnnounce) decode(d *enc.Decoder) {
	m.Op = d.U8()
	if d.Bool() {
		m.Desc = region.DecodeDescriptor(d)
	}
	m.Start = d.Addr()
	m.From = d.NodeID()
}
