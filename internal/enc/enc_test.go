package enc

import (
	"errors"
	"testing"
	"testing/quick"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.U8(0xab)
	e.U16(0xbeef)
	e.U32(0xdeadbeef)
	e.U64(0x0123456789abcdef)
	e.I64(-42)
	e.Bool(true)
	e.Bool(false)

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if got := d.U16(); got != 0xbeef {
		t.Errorf("U16 = %#x", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Bool(); got != true {
		t.Errorf("Bool = %v", got)
	}
	if got := d.Bool(); got != false {
		t.Errorf("Bool = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestBytesAndStrings(t *testing.T) {
	e := NewEncoder(0)
	e.Bytes32([]byte("hello"))
	e.Bytes32(nil)
	e.String("world")
	e.String("")

	d := NewDecoder(e.Bytes())
	if got := d.Bytes32(); string(got) != "hello" {
		t.Errorf("Bytes32 = %q", got)
	}
	if got := d.Bytes32(); len(got) != 0 {
		t.Errorf("empty Bytes32 = %q", got)
	}
	if got := d.String(); got != "world" {
		t.Errorf("String = %q", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestBytes32IsACopy(t *testing.T) {
	e := NewEncoder(0)
	e.Bytes32([]byte{1, 2, 3})
	buf := e.Bytes()
	d := NewDecoder(buf)
	got := d.Bytes32()
	buf[4] = 99 // clobber the first payload byte in the source buffer
	if got[0] != 1 {
		t.Fatal("Bytes32 result aliases the input buffer")
	}
}

func TestAddrRangeNodeRoundTrip(t *testing.T) {
	a := gaddr.New(7, 0x1000)
	r := gaddr.Range{Start: a, Size: 0x4000}
	ns := []ktypes.NodeID{1, 2, 5}

	e := NewEncoder(0)
	e.Addr(a)
	e.Range(r)
	e.NodeID(3)
	e.NodeIDs(ns)
	e.NodeIDs(nil)

	d := NewDecoder(e.Bytes())
	if got := d.Addr(); got != a {
		t.Errorf("Addr = %v", got)
	}
	if got := d.Range(); got != r {
		t.Errorf("Range = %v", got)
	}
	if got := d.NodeID(); got != 3 {
		t.Errorf("NodeID = %v", got)
	}
	got := d.NodeIDs()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 5 {
		t.Errorf("NodeIDs = %v", got)
	}
	if got := d.NodeIDs(); got != nil {
		t.Errorf("empty NodeIDs = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncation(t *testing.T) {
	e := NewEncoder(0)
	e.U64(12345)
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		d.U64()
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Fatalf("cut=%d: want ErrTruncated, got %v", cut, d.Err())
		}
	}
}

func TestStickyError(t *testing.T) {
	d := NewDecoder([]byte{1})
	d.U64() // fails
	if d.Err() == nil {
		t.Fatal("expected error")
	}
	// Subsequent reads keep returning zero values without panicking.
	if got := d.U32(); got != 0 {
		t.Errorf("after error U32 = %d", got)
	}
	if got := d.Bytes32(); got != nil {
		t.Errorf("after error Bytes32 = %v", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("after error String = %q", got)
	}
	if got := d.NodeIDs(); got != nil {
		t.Errorf("after error NodeIDs = %v", got)
	}
}

func TestHostileLengthPrefix(t *testing.T) {
	// A 4-byte length prefix claiming 4 GiB should be rejected, not
	// allocated.
	d := NewDecoder([]byte{0xff, 0xff, 0xff, 0xff})
	if got := d.Bytes32(); got != nil || d.Err() == nil {
		t.Fatalf("hostile Bytes32 = %v, err = %v", got, d.Err())
	}
	d = NewDecoder([]byte{0xff, 0xff, 0xff, 0xff})
	if got := d.String(); got != "" || d.Err() == nil {
		t.Fatalf("hostile String = %q, err = %v", got, d.Err())
	}
	// NodeIDs with a count larger than the remaining buffer.
	d = NewDecoder([]byte{0xff, 0xff})
	if got := d.NodeIDs(); got != nil || d.Err() == nil {
		t.Fatalf("hostile NodeIDs = %v, err = %v", got, d.Err())
	}
}

func TestFinishTrailing(t *testing.T) {
	e := NewEncoder(0)
	e.U32(1)
	e.U32(2)
	d := NewDecoder(e.Bytes())
	d.U32()
	if err := d.Finish(); err == nil {
		t.Fatal("Finish should report trailing bytes")
	}
}

// Property: any sequence of (u64, bytes, string, addr) round-trips.
func TestQuickMixedRoundTrip(t *testing.T) {
	f := func(v uint64, b []byte, s string, hi, lo uint64) bool {
		e := NewEncoder(0)
		e.U64(v)
		e.Bytes32(b)
		e.String(s)
		e.Addr(gaddr.New(hi, lo))

		d := NewDecoder(e.Bytes())
		if d.U64() != v {
			return false
		}
		gb := d.Bytes32()
		if len(gb) != len(b) || (len(b) > 0 && string(gb) != string(b)) {
			return false
		}
		if d.String() != s {
			return false
		}
		if d.Addr() != gaddr.New(hi, lo) {
			return false
		}
		return d.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a decoder never panics on arbitrary input for any read
// sequence.
func TestQuickNoPanicOnGarbage(t *testing.T) {
	f := func(input []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		d := NewDecoder(input)
		d.U8()
		d.Bytes32()
		_ = d.String()
		d.NodeIDs()
		d.Range()
		_ = d.Err()
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPayload32FrameSink: with a frame sink, Payload32 writes only the
// length prefix and hands the sink the frame behind the payload (a copy
// when there is none; nothing for an empty payload), and Bytes32Frame
// reads it back from the same frames in order. The decoder refuses a
// frame whose length is not the prefix's, and Finish a frame left over.
func TestPayload32FrameSink(t *testing.T) {
	f := frame.Copy([]byte("shared page"))
	defer f.Release()
	var sink []*frame.Frame
	var e Encoder
	e.Reset(nil, &sink)
	e.Payload32(f, f.Bytes())
	e.Payload32(nil, []byte("plain"))
	e.Payload32(nil, nil)
	if len(e.Bytes()) != 12 || len(sink) != 2 || sink[0] != f || f.Refs() != 2 || string(sink[1].Bytes()) != "plain" {
		t.Fatalf("encoded %d bytes, %d frames (first shared %v, refs %d)", len(e.Bytes()), len(sink), sink[0] == f, f.Refs())
	}
	for _, c := range []struct {
		name   string
		frames []*frame.Frame
		ok     bool
	}{
		{"in order", sink, true},
		{"one left over", append(append([]*frame.Frame(nil), sink...), frame.Copy([]byte("x"))), false},
		{"wrong length", []*frame.Frame{sink[1], sink[0]}, false},
		{"missing", sink[:1], false},
	} {
		src := append([]*frame.Frame(nil), c.frames...)
		var d Decoder
		d.Reset(e.Bytes(), src)
		a, b, none := d.Bytes32Frame(), d.Bytes32Frame(), d.Bytes32Frame()
		if err := d.Finish(); (err == nil) != c.ok {
			t.Errorf("%s: Finish = %v", c.name, err)
		}
		if c.ok && (a != f || b != sink[1] || none != nil || src[0] != nil || src[1] != nil) {
			t.Errorf("%s: decoded other frames than were sent, or left their slots", c.name)
		}
	}
}
