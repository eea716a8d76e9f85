// Package enc implements the compact binary codec used by Khazana's
// messaging layer. The paper notes (§5) that only the messaging layer is
// system dependent; this codec is that layer's portable core.
//
// Encoding is little-endian with length-prefixed byte strings. Decoders
// carry a sticky error so call sites can decode a whole struct and check
// the error once.
package enc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
)

// ErrTruncated is returned when a decoder runs out of input.
var ErrTruncated = errors.New("enc: truncated input")

// maxBytesLen bounds a single length-prefixed field to guard against
// corrupt or hostile length prefixes.
const maxBytesLen = 1 << 26 // 64 MiB

// Encoder appends binary values to a buffer.
type Encoder struct {
	buf  []byte
	sink *[]*frame.Frame
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer. The caller must not modify it while
// continuing to use the encoder.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset points the encoder at buf — a pooled or pre-sized buffer, grown
// only when capacity runs out — appending after its existing contents, so
// one Encoder serves many messages, and at sink (see Payload32; may be
// nil). Reset(nil, nil) drops both.
func (e *Encoder) Reset(buf []byte, sink *[]*frame.Frame) { e.buf, e.sink = buf, sink }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends an unsigned 8-bit value.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends an unsigned 16-bit value.
func (e *Encoder) U16(v uint16) {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
}

// U32 appends an unsigned 32-bit value.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends an unsigned 64-bit value.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends a signed 64-bit value.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes32 appends a byte string with a 32-bit length prefix.
func (e *Encoder) Bytes32(b []byte) {
	if len(b) > math.MaxUint32 {
		panic("enc: byte string too long")
	}
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Payload32 appends page payload data (backed by f, if non-nil) as Bytes32
// does, unless a frame sink is set and data is not empty: then it writes
// the prefix and gives the sink f retained (or a copy of data if f is nil).
func (e *Encoder) Payload32(f *frame.Frame, data []byte) {
	if e.sink == nil || len(data) == 0 {
		e.Bytes32(data)
		return
	}
	e.U32(uint32(len(data)))
	if f == nil {
		f = frame.Copy(data)
	} else {
		f.Retain()
	}
	*e.sink = append(*e.sink, f)
}

// String appends a string with a 32-bit length prefix.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Addr appends a 128-bit global address.
func (e *Encoder) Addr(a gaddr.Addr) {
	e.U64(a.Hi)
	e.U64(a.Lo)
}

// Range appends an address range.
func (e *Encoder) Range(r gaddr.Range) {
	e.Addr(r.Start)
	e.U64(r.Size)
}

// NodeID appends a node identifier.
func (e *Encoder) NodeID(n ktypes.NodeID) { e.U32(uint32(n)) }

// NodeIDs appends a slice of node identifiers with a 16-bit count prefix.
func (e *Encoder) NodeIDs(ns []ktypes.NodeID) {
	if len(ns) > math.MaxUint16 {
		panic("enc: too many node IDs")
	}
	e.U16(uint16(len(ns)))
	for _, n := range ns {
		e.NodeID(n)
	}
}

// Decoder reads binary values from a buffer with a sticky error.
type Decoder struct {
	buf []byte
	off int
	err error
	src []*frame.Frame // the payload frames not yet read (see Bytes32Frame)
}

// NewDecoder wraps a buffer for decoding.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Reset points the decoder at b from its start, clearing any error, so one
// Decoder serves many buffers, and at src (see Bytes32Frame; may be nil).
// Reset(nil, nil) drops both.
func (d *Decoder) Reset(b []byte, src []*frame.Frame) { *d = Decoder{buf: b, src: src} }

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Fail records err as the decoder's error unless one is already set, for
// callers that validate what they decoded (a nested message, a count the
// remaining input cannot hold).
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Finish returns an error when decoding failed or bytes or frames remain.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) || len(d.src) != 0 {
		return fmt.Errorf("enc: %d trailing bytes, %d trailing frames", len(d.buf)-d.off, len(d.src))
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.err = ErrTruncated
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads an unsigned 8-bit value.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads an unsigned 16-bit value.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads an unsigned 32-bit value.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads an unsigned 64-bit value.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a signed 64-bit value.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Bytes32 reads a length-prefixed byte string. The result is a copy and is
// safe to retain.
func (d *Decoder) Bytes32() []byte {
	b := d.View32()
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// View32 reads a length-prefixed byte string without copying it: the
// result aliases the decoder's input and is valid only as long as that
// buffer is. It is for a nested section decoded before the caller returns.
func (d *Decoder) View32() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > maxBytesLen {
		d.err = fmt.Errorf("enc: byte string length %d exceeds limit", n)
		return nil
	}
	return d.take(int(n))
}

// Bytes32Frame reads a page payload Payload32 wrote. The caller owns the
// returned frame (one reference) and must Release it; a zero-length field
// yields nil. With a non-nil src it takes src's next frame, which must be
// as long as the prefix says, and clears its slot; otherwise it copies
// the bytes into a pooled frame, which downstream layers share.
func (d *Decoder) Bytes32Frame() *frame.Frame {
	if d.src == nil {
		if b := d.View32(); len(b) > 0 {
			return frame.Copy(b)
		}
		return nil
	}
	switch n := int(d.U32()); {
	case d.err != nil || n == 0:
		return nil
	case len(d.src) == 0 || d.src[0].Len() != n:
		d.err = fmt.Errorf("enc: no %d-byte payload frame", n)
		return nil
	}
	f := d.src[0]
	d.src[0], d.src = nil, d.src[1:]
	return f
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.View32()) }

// Addr reads a 128-bit global address.
func (d *Decoder) Addr() gaddr.Addr {
	hi := d.U64()
	lo := d.U64()
	return gaddr.New(hi, lo)
}

// Range reads an address range.
func (d *Decoder) Range() gaddr.Range {
	start := d.Addr()
	size := d.U64()
	return gaddr.Range{Start: start, Size: size}
}

// NodeID reads a node identifier.
func (d *Decoder) NodeID() ktypes.NodeID { return ktypes.NodeID(d.U32()) }

// NodeIDs reads a count-prefixed slice of node identifiers.
func (d *Decoder) NodeIDs() []ktypes.NodeID { return d.AppendNodeIDs(nil, 0) }

// AppendNodeIDs reads a count-prefixed slice of node identifiers onto dst,
// growing it (as far as the input can fill) for more slices of this length
// after it, so a message's run of copysets shares one array.
func (d *Decoder) AppendNodeIDs(dst []ktypes.NodeID, more int) []ktypes.NodeID {
	n := int(d.U16())
	if d.err != nil {
		return dst
	}
	if d.Remaining() < n*4 {
		d.err = ErrTruncated
		return dst
	}
	if cap(dst)-len(dst) < n {
		dst = slices.Grow(dst, min(n*(1+more), d.Remaining()/4))
	}
	for range n {
		dst = append(dst, d.NodeID())
	}
	return dst
}
