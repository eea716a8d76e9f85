package wire

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
)

func legacyAppendAddr(b []byte, a gaddr.Addr) []byte {
	b = legacyAppendU64(b, a.Hi)
	return legacyAppendU64(b, a.Lo)
}

func legacyUpdateItemBody(b []byte, page gaddr.Addr, data []byte, version uint64, stamp int64, origin ktypes.NodeID) []byte {
	b = legacyAppendAddr(b, page)
	b = legacyAppendBytes32(b, data)
	b = legacyAppendU64(b, version)
	b = legacyAppendU64(b, uint64(stamp))
	return legacyAppendU32(b, uint32(origin))
}

// FuzzUpdateBatchWire proves the UpdateBatch encoding contract: a batch is
// its items' (page, contents, version, stamp, origin) bodies behind a
// (from, count) prefix, and the frame-backed marshal path is
// byte-identical to the bare-slice one. The same items sent as a
// ReplicaPut encode to the same body behind ReplicaPut's kind and decode
// back to the same items.
func FuzzUpdateBatchWire(f *testing.F) {
	f.Add([]byte("page one"), []byte(""), uint64(7), int64(42), uint32(3), uint32(9))
	f.Add([]byte{}, bytes.Repeat([]byte{0xEE}, 4096), uint64(0), int64(-1), uint32(0), uint32(1))
	f.Fuzz(func(t *testing.T, d1, d2 []byte, version uint64, stamp int64, origin, from uint32) {
		pages := []gaddr.Addr{{Hi: 1, Lo: 0x100000}, {Hi: 1, Lo: 0x101000}}
		m := &UpdateBatch{From: ktypes.NodeID(from), Items: []UpdateItem{
			{Page: pages[0], Version: version, Stamp: stamp, Origin: ktypes.NodeID(origin)},
			{Page: pages[1], Version: version + 1, Stamp: stamp, Origin: ktypes.NodeID(origin)},
		}}
		var frames []*frame.Frame
		for i, d := range [][]byte{d1, d2} {
			if len(d) == 0 {
				continue
			}
			fr := frame.Copy(d)
			// Frame-back one item and leave the other bare to prove both
			// paths emit the same bytes.
			if i == 0 {
				m.Items[i].SetFrame(fr)
			} else {
				m.Items[i].Data = append([]byte(nil), d...)
			}
			frames = append(frames, fr)
		}
		got := Marshal(m)

		want := legacyAppendU16(nil, uint16(KindUpdateBatch))
		want = legacyAppendU32(want, from)
		want = legacyAppendU16(want, uint16(len(m.Items)))
		for i := range m.Items {
			it := &m.Items[i]
			want = legacyUpdateItemBody(want, it.Page, it.Data, it.Version, it.Stamp, it.Origin)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("batch marshal diverged from the hand-rolled item bodies:\n got %x\nwant %x", got, want)
		}
		put := Marshal(&ReplicaPut{From: m.From, Items: m.Items})
		if !bytes.Equal(put[2:], want[2:]) || Kind(binary.LittleEndian.Uint16(put)) != KindReplicaPut {
			t.Fatalf("replica put diverged from the batch's item bodies:\n got %x\nwant %x", put, want)
		}
		m.ReleaseFrames()
		for _, fr := range frames {
			fr.Release()
		}

		back, err := Unmarshal(got)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		ub := back.(*UpdateBatch)
		if ub.From != ktypes.NodeID(from) || len(ub.Items) != 2 {
			t.Fatalf("header did not round trip: from=%d items=%d", ub.From, len(ub.Items))
		}
		backPut, err := Unmarshal(put)
		if err != nil {
			t.Fatalf("unmarshal replica put: %v", err)
		}
		rp := backPut.(*ReplicaPut)
		if rp.From != ub.From || len(rp.Items) != len(ub.Items) {
			t.Fatalf("replica put header did not round trip: from=%d items=%d", rp.From, len(rp.Items))
		}
		for i := range rp.Items {
			a, b := rp.Items[i], ub.Items[i]
			if !bytes.Equal(a.Data, b.Data) || a.Page != b.Page || a.Version != b.Version || a.Stamp != b.Stamp || a.Origin != b.Origin {
				t.Fatalf("replica put item %d differs from the batch's", i)
			}
		}
		rp.ReleaseFrames()
		for i, d := range [][]byte{d1, d2} {
			wantData := d
			if len(wantData) == 0 {
				wantData = nil
			}
			it := &ub.Items[i]
			if !bytes.Equal(it.Data, wantData) {
				t.Fatalf("item %d payload did not round trip", i)
			}
			if it.Page != pages[i] || it.Stamp != stamp || it.Origin != ktypes.NodeID(origin) {
				t.Fatalf("item %d scalar fields did not round trip", i)
			}
			df := it.TakeFrame()
			if len(wantData) > 0 {
				if df == nil {
					t.Fatalf("item %d decoded without frame backing", i)
				}
				if !bytes.Equal(df.Bytes(), wantData) || df.Version() != it.Version {
					t.Fatalf("item %d decoded frame mismatch", i)
				}
			}
			if df != nil {
				df.Release()
			}
		}
		ub.ReleaseFrames()
	})
}

// FuzzPageGrantBatchWire pins the PageGrantBatch layout: the bytes match
// the hand-rolled encoding and round-trip. A batch carrying the retired
// trailing section (a u16 count, then page, payload and version per item)
// is rejected by Unmarshal, not half-decoded.
func FuzzPageGrantBatchWire(f *testing.F) {
	f.Add([]byte("demand"), []byte("old tail"), uint64(5), "late")
	f.Add([]byte{}, bytes.Repeat([]byte{0x5A}, 4096), uint64(0), "")
	f.Fuzz(func(t *testing.T, demand, tail []byte, version uint64, errStr string) {
		m := &PageGrantBatch{Grants: []PageGrantItem{
			{OK: true, Version: version, Owner: 1},
			{OK: false, Version: version + 1, Owner: 2, Err: errStr},
			{OK: true, Current: true, Version: version, Owner: 1},
		}}
		if len(demand) > 0 {
			m.Grants[0].Data = append([]byte(nil), demand...)
		}
		plain := Marshal(m)
		legacy := legacyPageGrantBatch(m.Grants)
		if !bytes.Equal(plain, legacy) {
			t.Fatalf("batch diverged from the hand-rolled layout:\n got %x\nwant %x", plain, legacy)
		}
		back, err := Unmarshal(plain)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		gb := back.(*PageGrantBatch)
		wantDemand := demand
		if len(wantDemand) == 0 {
			wantDemand = nil
		}
		if len(gb.Grants) != 3 || !bytes.Equal(gb.Grants[0].Data, wantDemand) || gb.Grants[1].Err != errStr || gb.Grants[0].Current || !gb.Grants[2].Current {
			t.Fatal("grants did not round trip")
		}
		gb.ReleaseFrames()

		old := legacyAppendU16(append([]byte(nil), legacy...), 1)
		old = legacyAppendAddr(old, gaddr.Addr{Hi: 2, Lo: 0x200000})
		old = legacyAppendBytes32(old, tail)
		old = legacyAppendU64(old, version+2)
		if got, err := Unmarshal(old); err == nil {
			t.Fatalf("a batch with the retired trailing section decoded as %+v", got)
		}
	})
}

// FuzzPageReqBatchWire pins the PageReqBatch layout — a u16 count, (page,
// mode) per page, the requester, then a held-versions flag and, when set, a
// u64 per page — against hand-rolled bytes, round-trips it across the
// decoder's small-batch backings (up to 4, up to 16, larger), and checks
// that a count the input cannot hold, or held versions cut short, fails
// to decode.
func FuzzPageReqBatchWire(f *testing.F) {
	f.Add(uint8(4), uint64(0x100000), []byte{1, 2, 1, 1}, uint32(2), true, uint64(7))
	f.Add(uint8(1), uint64(0x3000), []byte{2}, uint32(9), false, uint64(0))
	f.Add(uint8(16), uint64(0), []byte{1}, uint32(3), true, uint64(0))
	f.Add(uint8(40), uint64(1<<40), []byte{}, uint32(1), true, uint64(1<<63))
	f.Add(uint8(0), uint64(0), []byte{}, uint32(5), true, uint64(1))
	f.Fuzz(func(t *testing.T, count uint8, base uint64, modes []byte, requester uint32, held bool, version uint64) {
		n := int(count % 48)
		m := &PageReqBatch{Requester: ktypes.NodeID(requester)}
		if held && n > 0 {
			m.Have = make([]uint64, n)
		}
		for i := 0; i < n; i++ {
			m.Pages = append(m.Pages, gaddr.New(uint64(i), base+uint64(i)*4096))
			mode := ktypes.LockRead
			if len(modes) > 0 {
				mode = ktypes.LockMode(modes[i%len(modes)])
			}
			m.Modes = append(m.Modes, mode)
			if m.Have != nil && i%3 != 1 {
				m.Have[i] = version + uint64(i)
			}
		}
		want := legacyAppendU16(nil, uint16(KindPageReqBatch))
		want = legacyAppendU16(want, uint16(n))
		for i, p := range m.Pages {
			want = append(legacyAppendAddr(want, p), byte(m.Modes[i]))
		}
		want = legacyAppendU32(want, requester)
		want = legacyAppendBool(want, m.Have != nil)
		for _, v := range m.Have {
			want = legacyAppendU64(want, v)
		}
		got := Marshal(m)
		if !bytes.Equal(got, want) {
			t.Fatalf("request diverged from the hand-rolled layout:\n got %x\nwant %x", got, want)
		}
		back, err := Unmarshal(got)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		rb := back.(*PageReqBatch)
		if !slices.Equal(rb.Pages, m.Pages) || !slices.Equal(rb.Modes, m.Modes) || !slices.Equal(rb.Have, m.Have) ||
			(rb.Have == nil) != (m.Have == nil) || rb.Requester != m.Requester {
			t.Fatalf("request did not round trip: got %+v want %+v", rb, m)
		}
		if m.Have != nil {
			if _, err := Unmarshal(got[:len(got)-1]); err == nil {
				t.Fatal("a request whose held versions are cut short decoded")
			}
		}
		// A count the body cannot hold is refused.
		lying := legacyAppendU16(legacyAppendU16(nil, uint16(KindPageReqBatch)), uint16(n)+1+uint16(count))
		lying = append(lying, want[4:]...)
		if _, err := Unmarshal(lying); err == nil && n > 0 {
			t.Fatalf("a request claiming %d pages over %d pages' bytes decoded", int(uint16(n)+1+uint16(count)), n)
		}
	})
}

// FuzzInvalidateBatchWire pins the InvalidateBatch layout — new owner, a
// 32-bit count, then (page, version) per item — against hand-rolled bytes,
// round-trips it, and checks that a count the input cannot hold is refused
// before it sizes an allocation.
func FuzzInvalidateBatchWire(f *testing.F) {
	f.Add(uint32(4), uint64(1), uint64(0x3000), uint64(10), uint16(2))
	f.Add(uint32(0), uint64(0), uint64(0), uint64(0), uint16(0))
	f.Add(uint32(9), uint64(1<<40), uint64(0xFFFFFFFFFFFFF000), uint64(1<<63), uint16(300))
	f.Fuzz(func(t *testing.T, owner uint32, hi, lo, version uint64, count uint16) {
		m := &InvalidateBatch{NewOwner: ktypes.NodeID(owner)}
		want := legacyAppendU16(nil, uint16(KindInvalidateBatch))
		want = legacyAppendU32(want, owner)
		want = legacyAppendU32(want, uint32(count))
		for i := uint64(0); i < uint64(count); i++ {
			it := InvalidateItem{Page: gaddr.Addr{Hi: hi, Lo: lo + i*4096}, Version: version + i}
			m.Items = append(m.Items, it)
			want = legacyAppendAddr(want, it.Page)
			want = legacyAppendU64(want, it.Version)
		}
		got := Marshal(m)
		if !bytes.Equal(got, want) {
			t.Fatalf("marshal diverged from the hand-rolled layout:\n got %x\nwant %x", got, want)
		}
		back, err := Unmarshal(got)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		ib := back.(*InvalidateBatch)
		if ib.NewOwner != m.NewOwner || len(ib.Items) != len(m.Items) {
			t.Fatalf("header did not round trip: owner=%d items=%d", ib.NewOwner, len(ib.Items))
		}
		for i := range m.Items {
			if ib.Items[i] != m.Items[i] {
				t.Fatalf("item %d did not round trip: got %+v want %+v", i, ib.Items[i], m.Items[i])
			}
		}
		// Claim one item more than the bytes hold.
		binary.LittleEndian.PutUint32(got[6:10], uint32(count)+1)
		if _, err := Unmarshal(got); err == nil {
			t.Fatal("an item count past the end of the input decoded")
		}
	})
}
