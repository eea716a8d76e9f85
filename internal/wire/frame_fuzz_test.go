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
		b = legacyAppendBytes32(b, g.Data)
		b = legacyAppendU64(b, g.Version)
		b = legacyAppendU32(b, uint32(g.Owner))
		b = legacyAppendString(b, g.Err)
	}
	return b
}

// FuzzTracedEnvelopeWire proves both halves of the trace-header
// compatibility contract: a message marshaled without a span context is
// byte-identical to the legacy (pre-telemetry) encoding with no envelope
// prefix, and the same bytes wrapped in a Traced envelope round-trip with
// the inner payload untouched.
func FuzzTracedEnvelopeWire(f *testing.F) {
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
		legacy := legacyPageGrantBatch(m.Grants)
		if !bytes.Equal(plain, legacy) {
			t.Fatalf("untraced marshal diverged from legacy format:\n got %x\nwant %x", plain, legacy)
		}
		if k := Kind(binary.LittleEndian.Uint16(plain[:2])); k != KindPageGrantBatch {
			t.Fatalf("untraced message carries kind %d, want %d", k, KindPageGrantBatch)
		}

		// The traced envelope wraps those exact bytes and yields them back.
		env := Marshal(&Traced{Trace: trace, Span: span, Inner: plain})
		if k := Kind(binary.LittleEndian.Uint16(env[:2])); k != KindTraced {
			t.Fatalf("envelope carries kind %d, want %d", k, KindTraced)
		}
		back, err := Unmarshal(env)
		if err != nil {
			t.Fatalf("unmarshal envelope: %v", err)
		}
		tr, isTraced := back.(*Traced)
		if !isTraced {
			t.Fatalf("envelope decoded as %T", back)
		}
		if tr.Trace != trace || tr.Span != span {
			t.Fatalf("trace context did not round trip: got (%x,%x) want (%x,%x)",
				tr.Trace, tr.Span, trace, span)
		}
		wantInner := plain
		if len(wantInner) == 0 {
			wantInner = nil
		}
		if !bytes.Equal(tr.Inner, wantInner) {
			t.Fatalf("inner payload changed inside the envelope:\n got %x\nwant %x", tr.Inner, plain)
		}
		inner, err := Unmarshal(tr.Inner)
		if err != nil {
			t.Fatalf("unmarshal inner: %v", err)
		}
		gb := inner.(*PageGrantBatch)
		if g := gb.Grants[0]; g.OK != ok || g.Version != version || g.Owner != ktypes.NodeID(owner) || g.Err != errStr {
			t.Fatal("inner scalar fields did not round trip")
		}
		gb.ReleaseFrames()
	})
}

// FuzzPageGrantFrameWire marshals a frame-backed single-page grant — a
// PageGrantBatch of one — and checks the bytes against the legacy
// encoding, then round-trips them back through Unmarshal.
func FuzzPageGrantFrameWire(f *testing.F) {
	f.Add(true, []byte("page contents"), uint64(7), uint32(3), "")
	f.Add(false, []byte{}, uint64(0), uint32(0), "conflict")
	f.Add(true, bytes.Repeat([]byte{0xA5}, 4096), uint64(1<<40), uint32(9), "")
	f.Fuzz(func(t *testing.T, ok bool, data []byte, version uint64, owner uint32, errStr string) {
		m := &PageGrantBatch{Grants: []PageGrantItem{{OK: ok, Version: version, Owner: ktypes.NodeID(owner), Err: errStr}}}
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
		if g.OK != ok || g.Version != version || g.Owner != ktypes.NodeID(owner) || g.Err != errStr {
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
			{OK: true, Version: version + 2, Owner: 3},
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
			if !bytes.Equal(gb.Grants[i].Data, wantData) {
				t.Fatalf("grant %d payload did not round trip", i)
			}
		}
		gb.ReleaseFrames()
	})
}
