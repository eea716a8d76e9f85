package addrmap

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
)

// goldenNode is a root node holding region entries with 0, 1 and MaxHomes
// homes and one subtree entry.
func goldenNode() *node {
	n := &node{
		nextFreePage: 7,
		cursor:       gaddr.New(0x0102030405060708, 0x1112131415161718),
		entries: []nodeEntry{
			{kind: kindRegion, rng: gaddr.Range{Start: gaddr.New(1, 0x1000), Size: 0x2000}},
			{kind: kindRegion, rng: gaddr.Range{Start: gaddr.New(1, 0x4000), Size: 0x1000}},
			{kind: kindRegion, rng: gaddr.Range{Start: gaddr.New(1, 0x8000), Size: 0x3000}},
			{kind: kindSubtree, rng: gaddr.Range{Start: gaddr.New(2, 0), Size: 1 << 40}, child: 0x0A0B0C0D0E0F1011},
		},
	}
	n.entries[1].setHomes([]ktypes.NodeID{9})
	n.entries[2].setHomes([]ktypes.NodeID{0xA1B2C3D4, 2, 3, 0xFFFFFFFF})
	return n
}

// TestNodePageFormatGolden pins the on-page layout of a tree node: map
// pages are persisted and replicated, so the bytes must never drift. The
// expected page is assembled from the layout constants alone — a
// little-endian header (magic, entry count, pad, next free page, cursor)
// and fixed-size entry records (kind, range, then a home count and
// MaxHomes home slots or a child page index), every unused byte zero.
func TestNodePageFormatGolden(t *testing.T) {
	want := make([]byte, PageSize)
	le := binary.LittleEndian
	le.PutUint32(want[0:], magic)
	le.PutUint16(want[4:], 4)
	le.PutUint64(want[8:], 7)
	le.PutUint64(want[16:], 0x0102030405060708)
	le.PutUint64(want[24:], 0x1112131415161718)
	records := []struct {
		kind  uint8
		hi    uint64
		lo    uint64
		size  uint64
		homes []uint32
		child uint64
	}{
		{kindRegion, 1, 0x1000, 0x2000, nil, 0},
		{kindRegion, 1, 0x4000, 0x1000, []uint32{9}, 0},
		{kindRegion, 1, 0x8000, 0x3000, []uint32{0xA1B2C3D4, 2, 3, 0xFFFFFFFF}, 0},
		{kindSubtree, 2, 0, 1 << 40, nil, 0x0A0B0C0D0E0F1011},
	}
	for i, r := range records {
		rec := want[headerSize+i*entrySize : headerSize+(i+1)*entrySize]
		rec[0] = r.kind
		le.PutUint64(rec[1:], r.hi)
		le.PutUint64(rec[9:], r.lo)
		le.PutUint64(rec[17:], r.size)
		if r.kind == kindSubtree {
			le.PutUint64(rec[25:], r.child)
			continue
		}
		rec[25] = byte(len(r.homes))
		for j, h := range r.homes {
			le.PutUint32(rec[26+4*j:], h)
		}
	}

	// Start from a dirty page: encodeInto must overwrite every byte.
	got := bytes.Repeat([]byte{0xEE}, PageSize)
	if err := goldenNode().encodeInto(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("encoded page differs from the pinned layout at byte %d: %#x, want %#x", i, got[i], want[i])
			}
		}
	}
	var buf nodeBuf
	n, err := decodeNode(want, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&n, goldenNode()) {
		t.Fatalf("decoded golden page = %+v, want %+v", n, goldenNode())
	}
}

// FuzzDecodeNode feeds arbitrary page contents to the decoder: it must
// never panic, and whatever it accepts must re-encode to a page that
// decodes to the same node and re-encodes to the same bytes.
func FuzzDecodeNode(f *testing.F) {
	page := make([]byte, PageSize)
	if err := goldenNode().encodeInto(page); err != nil {
		f.Fatal(err)
	}
	f.Add(page)
	f.Add(make([]byte, PageSize))
	f.Add(page[:headerSize+2*entrySize])
	f.Add([]byte{0x50, 0x4D, 0x41, 0x4B, 0x51, 0x00})
	f.Fuzz(func(t *testing.T, in []byte) {
		data := make([]byte, PageSize)
		copy(data, in)
		var buf, againBuf nodeBuf
		n, err := decodeNode(data, &buf)
		if err != nil {
			return
		}
		first := make([]byte, PageSize)
		if err := n.encodeInto(first); err != nil {
			t.Fatalf("re-encoding a decoded node: %v", err)
		}
		again, err := decodeNode(first, &againBuf)
		if err != nil {
			t.Fatalf("decoding a re-encoded node: %v", err)
		}
		if n.nextFreePage != again.nextFreePage || n.cursor != again.cursor ||
			len(n.entries) != len(again.entries) ||
			(len(n.entries) > 0 && !reflect.DeepEqual(n.entries, again.entries)) {
			t.Fatalf("round trip changed the node: %+v, then %+v", n, again)
		}
		second := make([]byte, PageSize)
		if err := again.encodeInto(second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatal("re-encoding is not stable")
		}
	})
}

// TestTreeNodeAllocGate is the object budget of the tree-node codec:
// decoding a full node fills the caller's buffer and allocates nothing,
// and encoding writes straight into the page.
func TestTreeNodeAllocGate(t *testing.T) {
	full := &node{nextFreePage: 3, cursor: gaddr.FromUint64(RegionSize)}
	for i := 0; i < maxEntries; i++ {
		ent := nodeEntry{kind: kindRegion, rng: gaddr.Range{Start: gaddr.FromUint64(uint64(i+1) * RegionSize), Size: PageSize}}
		ent.setHomes([]ktypes.NodeID{1, 2, 3, 4})
		full.entries = append(full.entries, ent)
	}
	page := make([]byte, PageSize)
	if err := full.encodeInto(page); err != nil {
		t.Fatal(err)
	}
	decodes := testing.AllocsPerRun(100, func() {
		var buf nodeBuf
		if n, err := decodeNode(page, &buf); err != nil || len(n.entries) != maxEntries {
			t.Fatalf("decode: %d entries, %v", len(n.entries), err)
		}
	})
	encodes := testing.AllocsPerRun(100, func() {
		if err := full.encodeInto(page); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("full node: decode %.0f objects, encode %.0f", decodes, encodes)
	if decodes != 0 {
		t.Fatalf("decoding a full %d-entry node allocates %.0f objects, want 0", maxEntries, decodes)
	}
	if encodes != 0 {
		t.Fatalf("encoding a full node allocates %.0f objects, want 0", encodes)
	}
}
