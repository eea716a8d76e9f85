// Package region defines Khazana regions: contiguous ranges of global
// address space with common application-level characteristics (paper §2).
//
// Each region has a global region descriptor storing its attributes
// (security attributes, page size, desired consistency protocol) and a home
// node that keeps track of all nodes maintaining copies of the region's
// data (§3.1). The package also implements the region directory, a per-node
// cache of recently used region descriptors (§3.2).
package region

import (
	"errors"
	"fmt"

	"khazana/internal/enc"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/security"
)

// DefaultPageSize is the default page size: 4 KB "to match the most common
// machine virtual memory page size" (paper §2).
const DefaultPageSize = 4096

// MaxPageSize bounds client-specified page sizes.
const MaxPageSize = 1 << 20

// Protocol selects the consistency protocol that keeps a region's replicas
// consistent (paper §3.3).
type Protocol uint8

const (
	// CREW is the Concurrent Read Exclusive Write protocol, the only
	// model the paper's prototype supports (§5).
	CREW Protocol = iota + 1
	// Release is the release-consistent protocol used for address map
	// tree nodes (§3.3).
	Release
	// Eventual is the relaxed protocol anticipated for applications such
	// as web caches that "tolerate data that is temporarily out-of-date
	// ... as long as they get fast response" (§3.3).
	Eventual
)

// String renders the protocol name.
func (p Protocol) String() string {
	switch p {
	case CREW:
		return "crew"
	case Release:
		return "release"
	case Eventual:
		return "eventual"
	default:
		return "invalid"
	}
}

// Valid reports whether p names a registered protocol.
func (p Protocol) Valid() bool { return p >= CREW && p <= Eventual }

// Level is the client's desired consistency level, the coarse knob from
// which a default protocol is derived when none is given explicitly.
type Level uint8

const (
	// Strict requires strictly consistent objects (paper cites Lamport's
	// sequential consistency).
	Strict Level = iota + 1
	// Relaxed tolerates propagation at synchronization points.
	Relaxed
	// Weak tolerates temporarily out-of-date data.
	Weak
)

// String renders the level name.
func (l Level) String() string {
	switch l {
	case Strict:
		return "strict"
	case Relaxed:
		return "relaxed"
	case Weak:
		return "weak"
	default:
		return "invalid"
	}
}

// Valid reports whether l is a defined level.
func (l Level) Valid() bool { return l >= Strict && l <= Weak }

// DefaultProtocol maps a consistency level to its default protocol.
func (l Level) DefaultProtocol() Protocol {
	switch l {
	case Relaxed:
		return Release
	case Weak:
		return Eventual
	default:
		return CREW
	}
}

// Attrs are a region's client-visible attributes (paper §2): desired
// consistency level, consistency protocol, access control information, and
// minimum number of replicas.
type Attrs struct {
	PageSize    uint32
	Level       Level
	Protocol    Protocol
	MinReplicas uint8
	ACL         security.ACL
}

// DefaultAttrs returns attributes for a strictly consistent, open,
// 4 KB-paged region with a single replica.
func DefaultAttrs() Attrs {
	return Attrs{
		PageSize:    DefaultPageSize,
		Level:       Strict,
		Protocol:    CREW,
		MinReplicas: 1,
		ACL:         security.Open(),
	}
}

// Normalize fills zero fields with defaults and returns the result.
func (a Attrs) Normalize() Attrs {
	if a.PageSize == 0 {
		a.PageSize = DefaultPageSize
	}
	if !a.Level.Valid() {
		a.Level = Strict
	}
	if !a.Protocol.Valid() {
		a.Protocol = a.Level.DefaultProtocol()
	}
	if a.MinReplicas == 0 {
		a.MinReplicas = 1
	}
	if a.ACL.Owner == "" && a.ACL.World == 0 && len(a.ACL.Entries) == 0 {
		// No access-control attributes given: world-accessible.
		a.ACL = security.Open()
	}
	return a
}

// Validate reports whether the attributes are usable.
func (a Attrs) Validate() error {
	if a.PageSize < 512 || a.PageSize > MaxPageSize {
		return fmt.Errorf("region: page size %d out of range [512, %d]", a.PageSize, MaxPageSize)
	}
	if a.PageSize&(a.PageSize-1) != 0 {
		return fmt.Errorf("region: page size %d not a power of two", a.PageSize)
	}
	if !a.Protocol.Valid() {
		return fmt.Errorf("region: invalid protocol %d", a.Protocol)
	}
	if !a.Level.Valid() {
		return fmt.Errorf("region: invalid level %d", a.Level)
	}
	return nil
}

// Descriptor is the global region descriptor (paper §3.1): the region's
// attributes plus home-node tracking state. Descriptors are cached in
// region directories and may be stale; the home list is a hint, not truth
// (§3.2).
//
// A descriptor is immutable once published — stored in a node's
// authoritative table or a Directory, or returned by a lookup. Those
// tables clone on the way in and hand out the stored pointer, so readers
// share one copy without locking; a change is a new version: Clone, edit
// the clone, store the new pointer. Only a descriptor the code built or
// cloned itself, and has not yet published, may be written.
type Descriptor struct {
	// Range is the region's reserved span of global address space.
	Range gaddr.Range
	// Attrs are the client-specified attributes.
	Attrs Attrs
	// Home lists the region's home node(s). The first entry is the
	// primary home that tracks the copyset.
	Home []ktypes.NodeID
	// Epoch increases every time the descriptor changes, letting caches
	// prefer fresher copies.
	Epoch uint64
	// Allocated records whether physical storage has been allocated; a
	// region cannot be accessed until it is (paper §2).
	Allocated bool
}

// ErrNoHome is returned when a descriptor lists no home nodes.
var ErrNoHome = errors.New("region: descriptor has no home node")

// ID returns the region's identity: its start address.
func (d *Descriptor) ID() gaddr.Addr { return d.Range.Start }

// PrimaryHome returns the region's primary home node.
func (d *Descriptor) PrimaryHome() (ktypes.NodeID, error) {
	if len(d.Home) == 0 {
		return ktypes.NilNode, ErrNoHome
	}
	return d.Home[0], nil
}

// HasHome reports whether n is one of the region's home nodes.
func (d *Descriptor) HasHome(n ktypes.NodeID) bool {
	for _, h := range d.Home {
		if h == n {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the descriptor.
func (d *Descriptor) Clone() *Descriptor {
	out := *d
	out.Home = append([]ktypes.NodeID(nil), d.Home...)
	out.Attrs.ACL.Entries = append([]security.Entry(nil), d.Attrs.ACL.Entries...)
	return &out
}

// PageBase returns the base address of the page containing a, under this
// region's page size.
func (d *Descriptor) PageBase(a gaddr.Addr) gaddr.Addr {
	return a.AlignDown(uint64(d.Attrs.PageSize))
}

// Pages returns the page base addresses covering [off, off+n) of the
// region.
func (d *Descriptor) Pages(off, n uint64) []gaddr.Addr {
	return d.Range.Pages(off, n, uint64(d.Attrs.PageSize))
}

// EncodeTo serializes the attributes.
func (a Attrs) EncodeTo(e *enc.Encoder) {
	e.U32(a.PageSize)
	e.U8(uint8(a.Level))
	e.U8(uint8(a.Protocol))
	e.U8(a.MinReplicas)
	a.ACL.EncodeTo(e)
}

// DecodeAttrs deserializes attributes.
func DecodeAttrs(d *enc.Decoder) Attrs {
	var a Attrs
	a.PageSize = d.U32()
	a.Level = Level(d.U8())
	a.Protocol = Protocol(d.U8())
	a.MinReplicas = d.U8()
	a.ACL = security.DecodeACL(d)
	return a
}

// EncodeTo serializes the descriptor.
func (d *Descriptor) EncodeTo(e *enc.Encoder) {
	e.Range(d.Range)
	d.Attrs.EncodeTo(e)
	e.NodeIDs(d.Home)
	e.U64(d.Epoch)
	e.Bool(d.Allocated)
}

// DecodeDescriptor deserializes a descriptor.
func DecodeDescriptor(d *enc.Decoder) *Descriptor {
	out := &Descriptor{}
	out.Range = d.Range()
	out.Attrs = DecodeAttrs(d)
	out.Home = d.NodeIDs()
	out.Epoch = d.U64()
	out.Allocated = d.Bool()
	return out
}
