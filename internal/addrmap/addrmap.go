// Package addrmap implements Khazana's address map (paper §3.1): a
// globally distributed tree that tracks reserved regions of the 128-bit
// global address space and the home nodes of each region. The map is used
// to locate home nodes "in much the same way that directories are used to
// track copies of pages in software DSM systems".
//
// The address map itself resides in Khazana: a well-known region beginning
// at address 0 stores the root node of the tree, and every tree node is
// one page of that region. The package accesses its own backing pages
// through the PageIO interface, which the daemon implements with
// release-consistent lock/read/write operations — matching the paper's
// choice of a release consistent protocol for address map tree nodes
// (§3.3). Entries may therefore be stale at readers; a caller whose home
// pointer proves stale asks the listed homes again (§3.2).
//
// Address space within the map is handed out by a monotonic cursor and
// never coalesced on unreserve: "For simplicity, we do not defragment ...
// We do not expect this to cause address space fragmentation problems, as
// we have a huge (128-bit) address space at our disposal" (§3.1).
package addrmap

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"khazana/internal/enc"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
)

// PageIO is the map's access path to its own backing pages.
type PageIO interface {
	// ReadPage returns the current contents of a map page (zero-filled
	// if never written) and done, which lets them go. The bytes are
	// read-only and stay valid until done is called; a reader decodes
	// them in place instead of copying the page.
	ReadPage(ctx context.Context, page gaddr.Addr) (data []byte, done func(), err error)
	// MutatePage applies fn to the page under a write lock. fn mutates
	// data in place and reports whether it changed the page; only a
	// changed page is written back, so a mutation that merely passes
	// through a tree node leaves that page's version alone.
	MutatePage(ctx context.Context, page gaddr.Addr, fn func(data []byte) (changed bool, err error)) error
}

// Geometry of the map region.
const (
	// PageSize is the fixed tree-node page size.
	PageSize = 4096
	// RegionSize is the span of address space reserved for the map
	// itself, starting at address 0.
	RegionSize = 1 << 30
	// MaxHomes is the number of home nodes stored per entry; the paper
	// calls the list non-exhaustive.
	MaxHomes = 4
	// maxEntries caps entries per tree node; overflow splits the node.
	maxEntries = 80

	magic       = 0x4B414D50 // "KAMP"
	headerSize  = 32
	entrySize   = 48
	kindRegion  = 1
	kindSubtree = 2
)

// Errors returned by the map.
var (
	// ErrNotFound reports a lookup or mutation on an unknown region.
	ErrNotFound = errors.New("addrmap: region not found")
	// ErrOverlap reports an insert that overlaps an existing region.
	ErrOverlap = errors.New("addrmap: range overlaps an existing region")
	// ErrSpaceExhausted reports cursor exhaustion (practically
	// unreachable in a 128-bit space).
	ErrSpaceExhausted = errors.New("addrmap: address space exhausted")
	// ErrCorrupt reports an unparsable tree node.
	ErrCorrupt = errors.New("addrmap: corrupt tree node")
)

// Entry describes one reserved region in the map.
type Entry struct {
	Range gaddr.Range
	Homes []ktypes.NodeID
}

// Map is a handle on the address map tree.
//
// Mutating operations (Init, ReserveRange, Insert, Remove, SetHomes) must
// be externally serialized: the daemon routes all map mutations through
// the map region's home node and a single mutex there. Lookup and Walk are
// safe to run concurrently from any node against (possibly stale)
// release-consistent replicas.
type Map struct {
	io PageIO
}

// New creates a handle using the given page access path.
func New(io PageIO) *Map { return &Map{io: io} }

// pageAddr returns the global address of map page index i.
func pageAddr(i uint64) gaddr.Addr { return gaddr.FromUint64(i * PageSize) }

// --- node serialization ---------------------------------------------------

// node is the in-memory form of one tree page.
type node struct {
	// root-only bookkeeping (zero on non-root nodes).
	nextFreePage uint64
	cursor       gaddr.Addr

	entries []nodeEntry
}

// nodeEntry mirrors one on-page entry record, which reserves MaxHomes
// home slots, so decoding an entry allocates nothing.
type nodeEntry struct {
	kind   uint8
	nhomes uint8 // kindRegion: homes[:nhomes] are set, the rest zero
	homes  [MaxHomes]ktypes.NodeID
	rng    gaddr.Range
	child  uint64 // kindSubtree: map page index
}

// homeList returns the entry's home nodes; it aliases the entry.
func (e *nodeEntry) homeList() []ktypes.NodeID { return e.homes[:e.nhomes] }

// setHomes stores the first MaxHomes of homes (the list is
// non-exhaustive).
func (e *nodeEntry) setHomes(homes []ktypes.NodeID) {
	e.homes = [MaxHomes]ktypes.NodeID{}
	e.nhomes = uint8(copy(e.homes[:], homes))
}

// nodeBuf holds a decoded node's entries. Callers declare one as a local
// variable, so decoding a tree page copies nothing to the heap; the spare
// slot absorbs an insert's shift.
type nodeBuf [maxEntries + 1]nodeEntry

// decodeNode parses a tree page; the node's entries alias buf.
func decodeNode(data []byte, buf *nodeBuf) (node, error) {
	if len(data) != PageSize {
		return node{}, fmt.Errorf("%w: page size %d", ErrCorrupt, len(data))
	}
	var d enc.Decoder
	d.Reset(data[:headerSize], nil)
	if got := d.U32(); got != magic {
		if got == 0 {
			// Never-written page: an empty node.
			return node{entries: buf[:0]}, nil
		}
		return node{}, fmt.Errorf("%w: magic %#x", ErrCorrupt, got)
	}
	count := int(d.U16())
	d.U16() // pad
	n := node{nextFreePage: d.U64(), cursor: d.Addr()}
	if count > maxEntries {
		return node{}, fmt.Errorf("%w: count %d", ErrCorrupt, count)
	}
	n.entries = buf[:count]
	for i := range n.entries {
		ent := &n.entries[i]
		d.Reset(data[headerSize+i*entrySize:headerSize+(i+1)*entrySize], nil)
		*ent = nodeEntry{kind: d.U8(), rng: d.Range()}
		switch ent.kind {
		case kindRegion:
			ent.nhomes = d.U8()
			if ent.nhomes > MaxHomes {
				return node{}, fmt.Errorf("%w: home count %d", ErrCorrupt, ent.nhomes)
			}
			for j := range ent.homes[:ent.nhomes] {
				ent.homes[j] = d.NodeID()
			}
		case kindSubtree:
			ent.child = d.U64()
		default:
			return node{}, fmt.Errorf("%w: entry kind %d", ErrCorrupt, ent.kind)
		}
		if d.Err() != nil {
			return node{}, fmt.Errorf("%w: %v", ErrCorrupt, d.Err())
		}
	}
	return n, nil
}

// encodeInto writes the node into a page buffer in place: a full node
// (headerSize + maxEntries*entrySize bytes) fits a page, so the encoder
// appends into data's own storage and never reallocates.
func (n *node) encodeInto(data []byte) error {
	if len(n.entries) > maxEntries {
		return fmt.Errorf("addrmap: node overflow: %d entries", len(n.entries))
	}
	var e enc.Encoder
	e.Reset(data[:0], nil)
	e.U32(magic)
	e.U16(uint16(len(n.entries)))
	e.U16(0)
	e.U64(n.nextFreePage)
	e.Addr(n.cursor)
	for _, ent := range n.entries {
		base := e.Len()
		e.U8(ent.kind)
		e.Range(ent.rng)
		switch ent.kind {
		case kindRegion:
			e.U8(ent.nhomes)
			for _, id := range ent.homes {
				e.NodeID(id)
			}
		case kindSubtree:
			e.U64(ent.child)
		}
		for e.Len()-base < entrySize {
			e.U8(0)
		}
	}
	clear(data[e.Len():])
	return nil
}

// --- operations ---------------------------------------------------------------

// Init writes the initial root node if the root page was never written.
// The map region itself is recorded as reserved so client reservations
// never collide with tree pages. Idempotent. A root that does not decode
// is reported as ErrCorrupt and left alone: overwriting it would forget
// every region and rewind the cursor over chunks already handed out.
func (m *Map) Init(ctx context.Context, mapHomes []ktypes.NodeID) error {
	return m.io.MutatePage(ctx, pageAddr(0), func(data []byte) (bool, error) {
		var buf nodeBuf
		if _, err := decodeNode(data, &buf); err != nil || binary.LittleEndian.Uint32(data) != 0 {
			return false, err // corrupt, or already initialized
		}
		root := node{nextFreePage: 1, cursor: gaddr.FromUint64(RegionSize), entries: buf[:1]}
		root.entries[0] = nodeEntry{kind: kindRegion, rng: gaddr.Range{Start: gaddr.Zero, Size: RegionSize}}
		root.entries[0].setHomes(mapHomes)
		return true, root.encodeInto(data)
	})
}

// ReserveRange advances the global cursor by size (aligned to align) and
// returns the claimed range. The range is not yet a region: callers carve
// client regions out of it and record them with Insert. This implements
// the cluster-manager chunk grant of §3.1.
func (m *Map) ReserveRange(ctx context.Context, size, align uint64) (gaddr.Range, error) {
	if size == 0 {
		return gaddr.Range{}, errors.New("addrmap: zero-size reservation")
	}
	if align == 0 {
		align = PageSize
	}
	var out gaddr.Range
	err := m.io.MutatePage(ctx, pageAddr(0), func(data []byte) (bool, error) {
		var buf nodeBuf
		root, err := decodeNode(data, &buf)
		if err != nil {
			return false, err
		}
		start, err := root.cursor.AlignUp(align)
		if err != nil {
			return false, ErrSpaceExhausted
		}
		end, err := start.Add(size)
		if err != nil {
			return false, ErrSpaceExhausted
		}
		root.cursor = end
		out = gaddr.Range{Start: start, Size: size}
		return true, root.encodeInto(data)
	})
	return out, err
}

// Insert records a reserved region. The region must fall inside previously
// cursor-granted space and must not overlap an existing region.
func (m *Map) Insert(ctx context.Context, entry Entry) error {
	if entry.Range.Size == 0 {
		return errors.New("addrmap: empty range")
	}
	return m.insertAt(ctx, 0, entry)
}

// errNodeFull tells insertAt that the node must split before it takes
// the entry; it never leaves the package.
var errNodeFull = errors.New("addrmap: node full")

// insertAt descends from map page index pageIdx to the node that should
// hold the entry, splitting full nodes on the way back up is avoided by
// splitting eagerly: a full node is split before insertion.
func (m *Map) insertAt(ctx context.Context, pageIdx uint64, entry Entry) error {
	var descend uint64
	err := m.io.MutatePage(ctx, pageAddr(pageIdx), func(data []byte) (bool, error) {
		var buf nodeBuf
		n, err := decodeNode(data, &buf)
		if err != nil {
			return false, err
		}
		descend = 0
		pos := len(n.entries) // sorted position
		for i, ent := range n.entries {
			if ent.kind == kindSubtree && ent.rng.ContainsRange(entry.Range) {
				descend = ent.child
				return false, nil // descend without mutating
			}
			if ent.rng.Overlaps(entry.Range) {
				return false, fmt.Errorf("%w: %v overlaps %v", ErrOverlap, entry.Range, ent.rng)
			}
			if pos == len(n.entries) && entry.Range.Start.Less(ent.rng.Start) {
				pos = i
			}
		}
		if len(n.entries) >= maxEntries {
			return false, errNodeFull
		}
		n.entries = n.entries[:len(n.entries)+1]
		copy(n.entries[pos+1:], n.entries[pos:])
		n.entries[pos] = nodeEntry{kind: kindRegion, rng: entry.Range}
		n.entries[pos].setHomes(entry.Homes)
		return true, n.encodeInto(data)
	})
	switch {
	case errors.Is(err, errNodeFull):
		if err := m.split(ctx, pageIdx); err != nil {
			return err
		}
		return m.insertAt(ctx, pageIdx, entry)
	case err == nil && descend != 0:
		return m.insertAt(ctx, descend, entry)
	}
	return err
}

// split moves the lower half of a full node's entries into a fresh child
// node, replacing them with a single subtree entry describing that range
// "in finer detail" (§3.1).
//
// The child page is written before the parent is updated: concurrent
// readers (which do not hold the mutation serialization the daemon applies
// to writers) see either the old parent or a parent whose subtree pointer
// already resolves — never a dangling pointer.
func (m *Map) split(ctx context.Context, pageIdx uint64) error {
	// Allocate a child page index from the root header.
	var childIdx uint64
	err := m.io.MutatePage(ctx, pageAddr(0), func(data []byte) (bool, error) {
		var buf nodeBuf
		root, err := decodeNode(data, &buf)
		if err != nil {
			return false, err
		}
		childIdx = root.nextFreePage
		if childIdx*PageSize >= RegionSize {
			return false, ErrSpaceExhausted
		}
		root.nextFreePage++
		return true, root.encodeInto(data)
	})
	if err != nil {
		return err
	}
	// Decide what moves (mutations are serialized by the caller, so this
	// read cannot race another writer). The callbacks below decode the
	// page again rather than capture these entries, which would move the
	// buffer to the heap.
	parent, done, err := m.io.ReadPage(ctx, pageAddr(pageIdx))
	if err != nil {
		return err
	}
	defer done()
	var buf nodeBuf
	n, err := decodeNode(parent, &buf)
	if err != nil {
		return err
	}
	if len(n.entries) < 2 {
		return nil // nothing to split
	}
	half := len(n.entries) / 2
	first := n.entries[0].rng.Start
	coverEnd, ok := n.entries[half-1].rng.End()
	if !ok {
		coverEnd = gaddr.Max
	}
	coverSize, _ := first.Distance(coverEnd)
	sub := nodeEntry{kind: kindSubtree, rng: gaddr.Range{Start: first, Size: coverSize}, child: childIdx}
	// Write the child first.
	err = m.io.MutatePage(ctx, pageAddr(childIdx), func(data []byte) (bool, error) {
		var buf nodeBuf
		n, err := decodeNode(parent, &buf)
		if err != nil {
			return false, err
		}
		n = node{entries: n.entries[:half]}
		return true, n.encodeInto(data)
	})
	if err != nil {
		return err
	}
	// Swap the moved entries for a subtree pointer in the parent.
	return m.io.MutatePage(ctx, pageAddr(pageIdx), func(data []byte) (bool, error) {
		var buf nodeBuf
		n, err := decodeNode(data, &buf)
		if err != nil || len(n.entries) < half {
			return false, err
		}
		n.entries = n.entries[half-1:]
		n.entries[0] = sub
		return true, n.encodeInto(data)
	})
}

// Lookup finds the region containing addr, descending the tree from the
// root (§3.2: "search the address map tree, starting at the root tree node
// and recursively loading pages"). steps reports the number of tree nodes
// visited, which the lookup-path experiments use.
func (m *Map) Lookup(ctx context.Context, addr gaddr.Addr) (Entry, int, error) {
	pageIdx := uint64(0)
	steps := 0
	var buf nodeBuf
	for {
		steps++
		data, done, err := m.io.ReadPage(ctx, pageAddr(pageIdx))
		if err != nil {
			return Entry{}, steps, err
		}
		n, err := decodeNode(data, &buf)
		done()
		if err != nil {
			return Entry{}, steps, err
		}
		next := uint64(0)
		found := false
		for _, ent := range n.entries {
			if !ent.rng.Contains(addr) {
				continue
			}
			if ent.kind == kindSubtree {
				next = ent.child
				found = true
				break
			}
			return Entry{Range: ent.rng, Homes: append([]ktypes.NodeID(nil), ent.homeList()...)}, steps, nil
		}
		if !found {
			return Entry{}, steps, ErrNotFound
		}
		pageIdx = next
	}
}

// Remove deletes the region starting at start (unreserve, §3.1).
func (m *Map) Remove(ctx context.Context, start gaddr.Addr) error {
	return m.mutateEntry(ctx, 0, start, nil, true)
}

// SetHomes updates the home-node list of the region starting at start
// (e.g. after replica migration or failover).
func (m *Map) SetHomes(ctx context.Context, start gaddr.Addr, homes []ktypes.NodeID) error {
	return m.mutateEntry(ctx, 0, start, homes, false)
}

// mutateEntry walks to the node holding the region that starts at start
// and deletes the entry if remove is set, else sets its homes.
func (m *Map) mutateEntry(ctx context.Context, pageIdx uint64, start gaddr.Addr, homes []ktypes.NodeID, remove bool) error {
	var descend uint64
	err := m.io.MutatePage(ctx, pageAddr(pageIdx), func(data []byte) (bool, error) {
		var buf nodeBuf
		n, err := decodeNode(data, &buf)
		if err != nil {
			return false, err
		}
		descend = 0
		for i, ent := range n.entries {
			if ent.kind == kindSubtree && ent.rng.Contains(start) {
				descend = ent.child
				return false, nil
			}
			if ent.kind == kindRegion && ent.rng.Start == start {
				if remove {
					n.entries = append(n.entries[:i], n.entries[i+1:]...)
				} else {
					n.entries[i].setHomes(homes)
				}
				return true, n.encodeInto(data)
			}
		}
		return false, ErrNotFound
	})
	if err == nil && descend != 0 {
		return m.mutateEntry(ctx, descend, start, homes, remove)
	}
	return err
}

// Walk visits every region entry in address order, for diagnostics and
// space accounting.
func (m *Map) Walk(ctx context.Context, visit func(Entry) bool) error {
	_, err := m.walkNode(ctx, 0, visit)
	return err
}

func (m *Map) walkNode(ctx context.Context, pageIdx uint64, visit func(Entry) bool) (bool, error) {
	data, done, err := m.io.ReadPage(ctx, pageAddr(pageIdx))
	if err != nil {
		return false, err
	}
	defer done()
	var buf nodeBuf
	n, err := decodeNode(data, &buf)
	if err != nil {
		return false, err
	}
	for _, ent := range n.entries {
		switch ent.kind {
		case kindSubtree:
			cont, err := m.walkNode(ctx, ent.child, visit)
			if err != nil || !cont {
				return cont, err
			}
		case kindRegion:
			if !visit(Entry{Range: ent.rng, Homes: append([]ktypes.NodeID(nil), ent.homeList()...)}) {
				return false, nil
			}
		}
	}
	return true, nil
}

// Depth returns the current tree depth (1 = root only).
func (m *Map) Depth(ctx context.Context) (int, error) {
	return m.depthOf(ctx, 0)
}

func (m *Map) depthOf(ctx context.Context, pageIdx uint64) (int, error) {
	data, done, err := m.io.ReadPage(ctx, pageAddr(pageIdx))
	if err != nil {
		return 0, err
	}
	defer done()
	var buf nodeBuf
	n, err := decodeNode(data, &buf)
	if err != nil {
		return 0, err
	}
	maxChild := 0
	for _, ent := range n.entries {
		if ent.kind != kindSubtree {
			continue
		}
		d, err := m.depthOf(ctx, ent.child)
		if err != nil {
			return 0, err
		}
		if d > maxChild {
			maxChild = d
		}
	}
	return 1 + maxChild, nil
}
