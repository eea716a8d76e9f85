package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"khazana/internal/frame"
	"khazana/internal/ktypes"
)

// legacyAppend* re-implement the pre-frame wire encoding by hand:
// little-endian fields with u32 length prefixes on byte strings, exactly
// as the original enc.Encoder-based codec emitted them. The fuzzers below
// prove the frame-backed marshal path is byte-identical to this format.

func legacyAppendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func legacyAppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func legacyAppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func legacyAppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func legacyAppendBytes32(b, p []byte) []byte {
	b = legacyAppendU32(b, uint32(len(p)))
	return append(b, p...)
}

func legacyAppendString(b []byte, s string) []byte {
	b = legacyAppendU32(b, uint32(len(s)))
	return append(b, s...)
}

func legacyPageGrantBatch(grants []PageGrantItem) []byte {
	b := legacyAppendU16(nil, uint16(KindPageGrantBatch))
	b = legacyAppendU16(b, uint16(len(grants)))
	for _, g := range grants {
		b = legacyAppendBool(b, g.OK)
		b = legacyAppendBool(b, g.Current)
		b = legacyAppendBytes32(b, g.Data)
		b = legacyAppendU64(b, g.Version)
		b = legacyAppendU32(b, uint32(g.Owner))
		b = legacyAppendString(b, g.Err)
	}
	return b
}

// legacyTraced is the trace envelope's encoding as the two-step encoder
// emitted it: the inner message marshaled on its own, then copied into the
// envelope as a length-prefixed byte string. It stays as the oracle
// AppendTraced, which encodes in place, is held to.
func legacyTraced(trace, span uint64, inner []byte) []byte {
	b := legacyAppendU16(nil, uint16(KindTraced))
	b = legacyAppendU64(b, trace)
	b = legacyAppendU64(b, span)
	return legacyAppendBytes32(b, inner)
}

// FuzzTracedEnvelope proves the trace-header compatibility contract. A
// message marshaled without a span context is byte-identical to the legacy
// (pre-telemetry) encoding with no envelope prefix. Wrapped by AppendTraced,
// the fuzzed grant and every sample message are byte-identical to the
// legacy two-step envelope, and UnmarshalRequest yields the inner message
// and IDs back with frames that recycle cleanly.
func FuzzTracedEnvelope(f *testing.F) {
	f.Add(true, []byte("page contents"), uint64(7), uint32(3), "", uint64(0xA), uint64(0xB))
	f.Add(false, []byte{}, uint64(0), uint32(0), "conflict", uint64(1), uint64(2))
	f.Fuzz(func(t *testing.T, ok bool, data []byte, version uint64, owner uint32, errStr string, trace, span uint64) {
		m := &PageGrantBatch{Grants: []PageGrantItem{{OK: ok, Version: version, Owner: ktypes.NodeID(owner), Err: errStr}}}
		if len(data) > 0 {
			m.Grants[0].Data = append([]byte(nil), data...)
		}
		// Absent span context: the plain marshal is the legacy format —
		// no envelope, kind prefix unchanged.
		plain := Marshal(m)
		if legacy := legacyPageGrantBatch(m.Grants); !bytes.Equal(plain, legacy) {
			t.Fatalf("untraced marshal diverged from legacy format:\n got %x\nwant %x", plain, legacy)
		}

		for _, inner := range append(sampleMessages(), m) {
			env := legacyTraced(trace, span, Marshal(inner))
			// AppendTraced writes after whatever header dst already holds.
			if got := AppendTraced([]byte{0xDE, 0xAD}, nil, trace, span, inner); !bytes.Equal(got[2:], env) || got[0] != 0xDE {
				t.Fatalf("%T: AppendTraced diverged from the two-step encoding:\n got %x\nwant %x", inner, got[2:], env)
			}
			checkUnmarshalRequest(t, inner, env, trace, span)
		}
	})
}

// checkUnmarshalRequest decodes env, inner's trace envelope, with
// UnmarshalRequest: it yields inner's bytes and the IDs with traced set, and
// the message owns its frames alone. inner's own bytes decode as Unmarshal
// decodes them, untraced.
func checkUnmarshalRequest(t *testing.T, inner Msg, env []byte, trace, span uint64) {
	t.Helper()
	want := Marshal(inner)
	m, gotTrace, gotSpan, traced, err := UnmarshalRequest(env, nil)
	if err != nil || !traced || gotTrace != trace || gotSpan != span {
		t.Fatalf("%T: UnmarshalRequest of the envelope = (%x, %x, traced %v, %v), want (%x, %x, traced)", inner, gotTrace, gotSpan, traced, err, trace, span)
	}
	if again := Marshal(m); !bytes.Equal(again, want) {
		t.Fatalf("%T: UnmarshalRequest changed the inner message", inner)
	}
	held := heldFrames(m)
	Recycle(m)
	for _, fr := range held {
		if fr.Refs() != 1 {
			t.Fatalf("%T: recycling the request left a frame with %d refs, want 1", inner, fr.Refs())
		}
		fr.Release()
	}

	plain, err := Unmarshal(want)
	if err != nil {
		t.Fatalf("%T: unmarshal: %v", inner, err)
	}
	m, gotTrace, gotSpan, traced, err = UnmarshalRequest(want, nil)
	if err != nil || traced || gotTrace != 0 || gotSpan != 0 {
		t.Fatalf("%T: UnmarshalRequest of an untraced body = (%x, %x, traced %v, %v)", inner, gotTrace, gotSpan, traced, err)
	}
	if m.Kind() != plain.Kind() || !bytes.Equal(Marshal(m), Marshal(plain)) {
		t.Fatalf("%T: UnmarshalRequest and Unmarshal disagree on an untraced body", inner)
	}
	Recycle(m)
	Recycle(plain)
}

// heldFrames retains and returns every frame a decoded message's payloads
// are backed by, so a test can watch the message's own references go.
func heldFrames(m Msg) []*frame.Frame {
	var held []*frame.Frame
	for _, slot := range frameSlots(m) {
		if *slot != nil {
			held = append(held, (*slot).Retain())
		}
	}
	return held
}

// TestTracedRejectsNestedAndEmpty: an envelope must wrap exactly one
// non-envelope message, and is not a message Unmarshal accepts. An envelope
// rejected for a stray byte after its inner message leaves no page frame
// behind: rejecting one around a 64 KB page allocates no more than
// rejecting one around an empty page.
func TestTracedRejectsNestedAndEmpty(t *testing.T) {
	inner := AppendTraced(nil, nil, 1, 2, &Ping{From: 1})
	if m, err := Unmarshal(inner); err == nil {
		t.Errorf("Unmarshal decoded a trace envelope as %T", m)
	}
	for _, c := range []struct {
		name string
		b    []byte
	}{
		{"nested envelope", legacyTraced(3, 4, inner)},
		{"empty envelope", legacyTraced(3, 4, nil)},
		{"envelope around an unknown kind", legacyTraced(3, 4, []byte{0xff, 0xff})},
		{"envelope with a trailing byte", append(legacyTraced(3, 4, Marshal(&Ping{From: 1})), 0)},
		{"truncated envelope", legacyTraced(3, 4, Marshal(&Ping{From: 1}))[:10]},
	} {
		if m, _, _, _, err := UnmarshalRequest(c.b, nil); err == nil {
			t.Errorf("%s decoded as %T", c.name, m)
		}
	}
	if raceEnabled {
		t.Skip("sync.Pool discards entries under the race detector; a released frame is seen by its reuse")
	}
	rejectAllocs := func(payload []byte) float64 {
		ub := &UpdateBatch{From: 1, Items: []UpdateItem{{Version: 1, Data: payload}}}
		b := append(legacyTraced(3, 4, Marshal(ub)), 0)
		return testing.AllocsPerRun(100, func() {
			if _, _, _, _, err := UnmarshalRequest(b, nil); err == nil {
				t.Fatal("an envelope with a trailing byte decoded")
			}
		})
	}
	if empty, page := rejectAllocs(nil), rejectAllocs(make([]byte, 64<<10)); page > empty {
		t.Errorf("rejecting an envelope around a page allocates %.1f objects, %.1f around an empty one: its frame leaked", page, empty)
	}
}

// FuzzPageGrantFrameWire marshals a frame-backed single-page grant — a
// PageGrantBatch of one, Current or not — and checks the bytes against the
// hand-rolled encoding, then round-trips them back through Unmarshal.
func FuzzPageGrantFrameWire(f *testing.F) {
	f.Add(true, false, []byte("page contents"), uint64(7), uint32(3), "")
	f.Add(false, false, []byte{}, uint64(0), uint32(0), "conflict")
	f.Add(true, false, bytes.Repeat([]byte{0xA5}, 4096), uint64(1<<40), uint32(9), "")
	f.Add(true, true, []byte{}, uint64(12), uint32(1), "")
	f.Fuzz(func(t *testing.T, ok, current bool, data []byte, version uint64, owner uint32, errStr string) {
		m := &PageGrantBatch{Grants: []PageGrantItem{{OK: ok, Current: current, Version: version, Owner: ktypes.NodeID(owner), Err: errStr}}}
		var fr *frame.Frame
		if len(data) > 0 {
			fr = frame.Copy(data)
			m.Grants[0].SetFrame(fr)
		}
		got := Marshal(m)
		want := legacyPageGrantBatch(m.Grants)
		if !bytes.Equal(got, want) {
			t.Fatalf("frame-backed marshal diverged from legacy format:\n got %x\nwant %x", got, want)
		}
		// MarshalAppend into a partially-filled buffer must produce the
		// same payload after the prefix.
		prefixed := MarshalAppend([]byte{0xDE, 0xAD}, m)
		if !bytes.Equal(prefixed[2:], want) {
			t.Fatal("MarshalAppend payload differs from Marshal")
		}
		m.ReleaseFrames()
		if fr != nil {
			fr.Release()
		}

		back, err := Unmarshal(got)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		g := &back.(*PageGrantBatch).Grants[0]
		if g.OK != ok || g.Current != current || g.Version != version || g.Owner != ktypes.NodeID(owner) || g.Err != errStr {
			t.Fatal("scalar fields did not round trip")
		}
		wantData := data
		if len(wantData) == 0 {
			wantData = nil
		}
		if !bytes.Equal(g.Data, wantData) {
			t.Fatalf("payload did not round trip: got %x want %x", g.Data, wantData)
		}
		df := g.TakeFrame()
		if len(wantData) > 0 {
			if df == nil {
				t.Fatal("decoded grant has no frame backing")
			}
			if !bytes.Equal(df.Bytes(), wantData) {
				t.Fatal("decoded frame contents differ from payload")
			}
			if df.Version() != version {
				t.Fatalf("decoded frame version = %d, want %d", df.Version(), version)
			}
		}
		if df != nil {
			df.Release()
		}
	})
}

// FuzzPageGrantBatchFrameWire does the same for the batched grant: three
// fuzz-derived items, some frame-backed, marshaled and checked against the
// legacy encoding byte for byte.
func FuzzPageGrantBatchFrameWire(f *testing.F) {
	f.Add([]byte("one"), []byte(""), []byte("three"), uint64(4), "late")
	f.Add([]byte{}, bytes.Repeat([]byte{7}, 512), []byte{0}, uint64(0), "")
	f.Fuzz(func(t *testing.T, d1, d2, d3 []byte, version uint64, errStr string) {
		m := &PageGrantBatch{Grants: []PageGrantItem{
			{OK: true, Version: version, Owner: 1},
			{OK: len(d2) > 0, Version: version + 1, Owner: 2, Err: errStr},
			{OK: true, Current: len(d3) == 0, Version: version + 2, Owner: 3},
		}}
		var frames []*frame.Frame
		for i, d := range [][]byte{d1, d2, d3} {
			if len(d) == 0 {
				continue
			}
			fr := frame.Copy(d)
			// Frame-back every other item to mix bare and framed Data.
			if i%2 == 0 {
				m.Grants[i].SetFrame(fr)
			} else {
				m.Grants[i].Data = append([]byte(nil), d...)
			}
			frames = append(frames, fr)
		}
		got := Marshal(m)
		want := legacyPageGrantBatch(m.Grants)
		if !bytes.Equal(got, want) {
			t.Fatalf("batched frame-backed marshal diverged from legacy format:\n got %x\nwant %x", got, want)
		}
		m.ReleaseFrames()
		for _, fr := range frames {
			fr.Release()
		}

		back, err := Unmarshal(got)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		gb := back.(*PageGrantBatch)
		if len(gb.Grants) != 3 {
			t.Fatalf("got %d grants, want 3", len(gb.Grants))
		}
		for i, d := range [][]byte{d1, d2, d3} {
			wantData := d
			if len(wantData) == 0 {
				wantData = nil
			}
			if !bytes.Equal(gb.Grants[i].Data, wantData) || gb.Grants[i].Current != m.Grants[i].Current {
				t.Fatalf("grant %d payload did not round trip", i)
			}
		}
		gb.ReleaseFrames()
	})
}
