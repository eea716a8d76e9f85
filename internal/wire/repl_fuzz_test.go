package wire

import (
	"bytes"
	"testing"

	"khazana/internal/enc"
	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
)

func legacyAppendNodeIDs(b []byte, ns []ktypes.NodeID) []byte {
	b = legacyAppendU16(b, uint16(len(ns)))
	for _, n := range ns {
		b = legacyAppendU32(b, uint32(n))
	}
	return b
}

func legacyAppendReplEntry(b []byte, en ReplEntry) []byte {
	b = legacyAppendU64(b, en.Index)
	b = legacyAppendU64(b, en.Term)
	b = legacyAppendAddr(b, en.Region)
	b = append(b, en.Op)
	b = legacyAppendAddr(b, en.Page)
	b = legacyAppendU32(b, uint32(en.Node))
	b = legacyAppendNodeIDs(b, en.Nodes)
	b = legacyAppendU64(b, en.Val)
	b = legacyAppendU64(b, en.Aux)
	return b
}

// FuzzReplAppendWire proves the append encoding is the documented layout
// (header, count-prefixed entries, snapshot trailer, then the page trailer:
// UpdateBatch's count-prefixed item bodies) and round-trips, entries,
// snapshot state and frame-backed pages included. Cutting the encoding
// anywhere inside the page trailer fails the decode and leaves no frame
// referenced.
func FuzzReplAppendWire(f *testing.F) {
	f.Add(uint64(3), uint64(7), uint64(6), uint32(2), uint64(0x2000),
		uint64(5), uint64(9), uint64(2), []byte{}, uint8(0), []byte{})
	f.Add(uint64(0), uint64(1), uint64(0), uint32(1), uint64(1)<<40,
		uint64(0), uint64(0), uint64(0), bytes.Repeat([]byte{0x5A}, 64), uint8(0), []byte{})
	f.Add(uint64(4), uint64(11), uint64(10), uint32(1), uint64(0x3000),
		uint64(12), uint64(7), uint64(0), []byte{}, uint8(2), bytes.Repeat([]byte{0xC3}, 4096))
	f.Fuzz(func(t *testing.T, term, prev, commit uint64, from uint32,
		pageLo, val, aux, snapIdx uint64, snap []byte, nPages uint8, data []byte) {
		region := gaddr.Addr{Hi: 2, Lo: 0x1000}
		entries := []ReplEntry{
			{
				Index: prev + 1, Term: term, Region: region,
				Op: ReplOpRelease, Page: gaddr.Addr{Hi: 2, Lo: pageLo},
				Node: ktypes.NodeID(from), Nodes: []ktypes.NodeID{1, 3},
				Val: val, Aux: aux,
			},
			{
				Index: prev + 2, Term: term, Region: region,
				Op: ReplOpHomes, Nodes: []ktypes.NodeID{3, 1}, Val: val + 1,
			},
		}
		var pages []UpdateItem
		for i := 0; i < int(nPages%3); i++ {
			it := UpdateItem{Page: gaddr.Addr{Hi: 2, Lo: pageLo + uint64(i)<<12}, Version: val + uint64(i), Origin: ktypes.NodeID(from)}
			if len(data) > 0 {
				fr := frame.Copy(data)
				it.SetFrame(fr)
				fr.Release()
			}
			pages = append(pages, it)
		}
		m := &ReplAppend{
			Region: region, From: ktypes.NodeID(from), Term: term,
			PrevIndex: prev, PrevTerm: term, Commit: commit, Entries: entries,
			SnapIndex: snapIdx, SnapTerm: term, SnapState: snap, Pages: pages,
		}
		got := Marshal(m)

		want := legacyAppendU16(nil, uint16(KindReplAppend))
		want = legacyAppendAddr(want, region)
		want = legacyAppendU32(want, from)
		want = legacyAppendU64(want, term)
		want = legacyAppendU64(want, prev)
		want = legacyAppendU64(want, term)
		want = legacyAppendU64(want, commit)
		want = legacyAppendU16(want, uint16(len(entries)))
		for _, en := range entries {
			want = legacyAppendReplEntry(want, en)
		}
		want = legacyAppendU64(want, snapIdx)
		want = legacyAppendU64(want, term)
		want = legacyAppendBytes32(want, snap)
		want = legacyAppendU16(want, uint16(len(pages)))
		for _, it := range pages {
			want = legacyUpdateItemBody(want, it.Page, it.Data, it.Version, it.Origin)
		}
		m.ReleaseFrames()
		if !bytes.Equal(got, want) {
			t.Fatalf("repl append diverged from documented layout:\n got %x\nwant %x", got, want)
		}

		back, err := Unmarshal(got)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		r := back.(*ReplAppend)
		if r.Region != region || r.From != ktypes.NodeID(from) || r.Term != term ||
			r.PrevIndex != prev || r.PrevTerm != term || r.Commit != commit {
			t.Fatal("header fields did not round trip")
		}
		if len(r.Entries) != 2 {
			t.Fatalf("entry count did not round trip: %d", len(r.Entries))
		}
		for i := range entries {
			g, w := r.Entries[i], entries[i]
			if g.Index != w.Index || g.Term != w.Term || g.Region != w.Region ||
				g.Op != w.Op || g.Page != w.Page || g.Node != w.Node ||
				g.Val != w.Val || g.Aux != w.Aux || len(g.Nodes) != len(w.Nodes) {
				t.Fatalf("entry %d did not round trip: got %+v want %+v", i, g, w)
			}
			for j := range w.Nodes {
				if g.Nodes[j] != w.Nodes[j] {
					t.Fatalf("entry %d copyset did not round trip", i)
				}
			}
		}
		wantSnap := snap
		if len(wantSnap) == 0 {
			wantSnap = nil
		}
		if r.SnapIndex != snapIdx || r.SnapTerm != term || !bytes.Equal(r.SnapState, wantSnap) {
			t.Fatal("snapshot trailer did not round trip")
		}
		if len(r.Pages) != len(pages) {
			t.Fatalf("page count did not round trip: %d, want %d", len(r.Pages), len(pages))
		}
		held := heldFrames(r)
		for i, it := range r.Pages {
			w := pages[i]
			if it.Page != w.Page || it.Version != w.Version || it.Origin != w.Origin {
				t.Fatalf("page %d scalar fields did not round trip", i)
			}
			if !bytes.Equal(it.Data, data) {
				t.Fatalf("page %d contents did not round trip", i)
			}
			if len(data) > 0 && (it.dataFrame == nil || it.dataFrame.Version() != w.Version) {
				t.Fatalf("page %d decoded without a frame stamped with its version", i)
			}
		}
		Recycle(r)
		for _, fr := range held {
			if fr.Refs() != 1 {
				t.Fatalf("recycling the append left a page frame with %d refs, want 1", fr.Refs())
			}
			fr.Release()
		}

		// A cut inside the page trailer fails the decode, and recycling the
		// rejected message drops the frames of the pages decoded before it.
		if len(pages) == 2 && len(data) > 0 {
			cut := want[:len(want)-1]
			if m, err := Unmarshal(cut); err == nil {
				t.Fatalf("a truncated page trailer decoded as %T", m)
			}
			d := enc.NewDecoder(cut[2:])
			part := &ReplAppend{}
			part.decode(d)
			if d.Finish() == nil || len(part.Pages) != 1 {
				t.Fatalf("a cut in the second page decoded %d pages without error, want 1 and an error", len(part.Pages))
			}
			held := heldFrames(part)
			Recycle(part)
			for _, fr := range held {
				if fr.Refs() != 1 {
					t.Fatalf("recycling a truncated append left a page frame with %d refs, want 1", fr.Refs())
				}
				fr.Release()
			}
		}
	})
}

// FuzzReplAckWire proves the shared append/vote reply round-trips and
// matches the documented layout.
func FuzzReplAckWire(f *testing.F) {
	f.Add(uint64(4), uint64(17), true, false, "")
	f.Add(uint64(0), uint64(0), false, true, "lease still live")
	f.Fuzz(func(t *testing.T, term, ack uint64, ok, granted bool, errStr string) {
		m := &ReplAck{Term: term, Ack: ack, OK: ok, VoteGranted: granted, Err: errStr}
		got := Marshal(m)

		want := legacyAppendU16(nil, uint16(KindReplAck))
		want = legacyAppendU64(want, term)
		want = legacyAppendU64(want, ack)
		want = legacyAppendBool(want, ok)
		want = legacyAppendBool(want, granted)
		want = legacyAppendString(want, errStr)
		if !bytes.Equal(got, want) {
			t.Fatalf("repl ack diverged from documented layout:\n got %x\nwant %x", got, want)
		}

		back, err := Unmarshal(got)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		r := back.(*ReplAck)
		if r.Term != term || r.Ack != ack || r.OK != ok ||
			r.VoteGranted != granted || r.Err != errStr {
			t.Fatal("fields did not round trip")
		}
	})
}

// FuzzReplPromoteWire proves the vote request round-trips and matches
// the documented layout.
func FuzzReplPromoteWire(f *testing.F) {
	f.Add(uint64(0x3000), uint32(3), uint64(5), uint64(12), uint64(4))
	f.Add(uint64(0), uint32(0), uint64(0), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, lo uint64, cand uint32, term, lastIdx, lastTerm uint64) {
		region := gaddr.Addr{Hi: 1, Lo: lo}
		m := &ReplPromote{
			Region: region, Candidate: ktypes.NodeID(cand),
			Term: term, LastIndex: lastIdx, LastTerm: lastTerm,
		}
		got := Marshal(m)

		want := legacyAppendU16(nil, uint16(KindReplPromote))
		want = legacyAppendAddr(want, region)
		want = legacyAppendU32(want, cand)
		want = legacyAppendU64(want, term)
		want = legacyAppendU64(want, lastIdx)
		want = legacyAppendU64(want, lastTerm)
		if !bytes.Equal(got, want) {
			t.Fatalf("repl promote diverged from documented layout:\n got %x\nwant %x", got, want)
		}

		back, err := Unmarshal(got)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		r := back.(*ReplPromote)
		if r.Region != region || r.Candidate != ktypes.NodeID(cand) ||
			r.Term != term || r.LastIndex != lastIdx || r.LastTerm != lastTerm {
			t.Fatal("fields did not round trip")
		}
	})
}
