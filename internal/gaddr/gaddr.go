// Package gaddr implements Khazana's 128-bit global address space.
//
// Khazana regions are "addressed" using 128-bit identifiers with no direct
// correspondence to an application's virtual addresses (paper §2). This
// package provides the address type, 128-bit arithmetic with carry/borrow,
// and contiguous address ranges used for regions.
package gaddr

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Addr is a 128-bit global address.
//
// The zero value is address 0, the well-known root of the address map tree
// (paper §3.1).
type Addr struct {
	Hi uint64
	Lo uint64
}

// Zero is the well-known address 0 that stores the root node of the
// address map tree.
var Zero = Addr{}

// Max is the largest representable address.
var Max = Addr{Hi: ^uint64(0), Lo: ^uint64(0)}

// ErrAddrOverflow is returned by arithmetic that would wrap around the
// 128-bit address space.
var ErrAddrOverflow = errors.New("gaddr: address overflow")

// New builds an address from its high and low 64-bit halves.
func New(hi, lo uint64) Addr { return Addr{Hi: hi, Lo: lo} }

// FromUint64 builds an address in the low 64-bit half of the space.
func FromUint64(lo uint64) Addr { return Addr{Lo: lo} }

// Add returns a+n, reporting overflow past the top of the address space.
func (a Addr) Add(n uint64) (Addr, error) {
	lo, carry := bits.Add64(a.Lo, n, 0)
	hi, carry := bits.Add64(a.Hi, 0, carry)
	if carry != 0 {
		return Addr{}, ErrAddrOverflow
	}
	return Addr{Hi: hi, Lo: lo}, nil
}

// MustAdd is Add for offsets known to be in range; it panics on overflow.
// It is intended for arithmetic inside already-validated regions.
func (a Addr) MustAdd(n uint64) Addr {
	r, err := a.Add(n)
	if err != nil {
		panic(fmt.Sprintf("gaddr: MustAdd(%v, %d) overflow", a, n))
	}
	return r
}

// Sub returns a-n, reporting underflow below address 0.
func (a Addr) Sub(n uint64) (Addr, error) {
	lo, borrow := bits.Sub64(a.Lo, n, 0)
	hi, borrow := bits.Sub64(a.Hi, 0, borrow)
	if borrow != 0 {
		return Addr{}, ErrAddrOverflow
	}
	return Addr{Hi: hi, Lo: lo}, nil
}

// Distance returns b-a as a uint64 offset. ok is false when b < a or when
// the distance does not fit in 64 bits (regions are limited to 2^64-1 bytes).
func (a Addr) Distance(b Addr) (n uint64, ok bool) {
	if b.Less(a) {
		return 0, false
	}
	lo, borrow := bits.Sub64(b.Lo, a.Lo, 0)
	hi, _ := bits.Sub64(b.Hi, a.Hi, borrow)
	if hi != 0 {
		return 0, false
	}
	return lo, true
}

// Cmp compares two addresses, returning -1, 0, or +1.
func (a Addr) Cmp(b Addr) int {
	switch {
	case a.Hi < b.Hi:
		return -1
	case a.Hi > b.Hi:
		return 1
	case a.Lo < b.Lo:
		return -1
	case a.Lo > b.Lo:
		return 1
	}
	return 0
}

// Less reports whether a < b.
func (a Addr) Less(b Addr) bool { return a.Cmp(b) < 0 }

// IsZero reports whether a is address 0.
func (a Addr) IsZero() bool { return a.Hi == 0 && a.Lo == 0 }

// AlignDown rounds a down to a multiple of align. align must be a power of
// two no larger than 2^63.
func (a Addr) AlignDown(align uint64) Addr {
	if align == 0 || align&(align-1) != 0 {
		panic("gaddr: alignment must be a power of two")
	}
	return Addr{Hi: a.Hi, Lo: a.Lo &^ (align - 1)}
}

// AlignUp rounds a up to a multiple of align, reporting overflow.
func (a Addr) AlignUp(align uint64) (Addr, error) {
	d := a.AlignDown(align)
	if d == a {
		return a, nil
	}
	return d.Add(align)
}

// Offset returns the byte offset of a within its enclosing align-sized unit.
func (a Addr) Offset(align uint64) uint64 {
	if align == 0 || align&(align-1) != 0 {
		panic("gaddr: alignment must be a power of two")
	}
	return a.Lo & (align - 1)
}

// String renders the address as 32 hex digits split for readability,
// e.g. "0000000000000000:0000000000001000".
func (a Addr) String() string {
	return fmt.Sprintf("%016x:%016x", a.Hi, a.Lo)
}

// Parse parses the format produced by String, and also accepts a bare hex
// number (with optional 0x prefix) for addresses in the low half.
func Parse(s string) (Addr, error) {
	if hi, lo, ok := strings.Cut(s, ":"); ok {
		h, err := strconv.ParseUint(hi, 16, 64)
		if err != nil {
			return Addr{}, fmt.Errorf("gaddr: parse %q: %w", s, err)
		}
		l, err := strconv.ParseUint(lo, 16, 64)
		if err != nil {
			return Addr{}, fmt.Errorf("gaddr: parse %q: %w", s, err)
		}
		return Addr{Hi: h, Lo: l}, nil
	}
	s = strings.TrimPrefix(s, "0x")
	l, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return Addr{}, fmt.Errorf("gaddr: parse %q: %w", s, err)
	}
	return Addr{Lo: l}, nil
}

// Range is a contiguous range of global address space: [Start, Start+Size).
// A Khazana region occupies exactly one Range.
type Range struct {
	Start Addr
	Size  uint64
}

// NewRange builds a range, validating that it does not wrap the address
// space.
func NewRange(start Addr, size uint64) (Range, error) {
	if size == 0 {
		return Range{}, errors.New("gaddr: empty range")
	}
	if _, err := start.Add(size - 1); err != nil {
		return Range{}, fmt.Errorf("gaddr: range %v+%d: %w", start, size, err)
	}
	return Range{Start: start, Size: size}, nil
}

// End returns the first address past the range. The end of a range that
// abuts the top of the address space is reported with ok=false.
func (r Range) End() (Addr, bool) {
	e, err := r.Start.Add(r.Size)
	if err != nil {
		return Addr{}, false
	}
	return e, true
}

// Contains reports whether a falls inside the range.
func (r Range) Contains(a Addr) bool {
	if a.Less(r.Start) {
		return false
	}
	d, ok := r.Start.Distance(a)
	return ok && d < r.Size
}

// ContainsRange reports whether q lies entirely inside r.
func (r Range) ContainsRange(q Range) bool {
	if !r.Contains(q.Start) {
		return false
	}
	d, _ := r.Start.Distance(q.Start)
	return q.Size <= r.Size-d
}

// Overlaps reports whether the two ranges share any address.
func (r Range) Overlaps(q Range) bool {
	if r.Size == 0 || q.Size == 0 {
		return false
	}
	return r.Contains(q.Start) || q.Contains(r.Start)
}

// OffsetOf returns the byte offset of a from the start of the range; ok is
// false when a is outside the range.
func (r Range) OffsetOf(a Addr) (uint64, bool) {
	if !r.Contains(a) {
		return 0, false
	}
	d, _ := r.Start.Distance(a)
	return d, true
}

// Pages enumerates the page-aligned base addresses covering the byte span
// [off, off+n) of the range, for the given page size. It returns nil when
// the span is empty or escapes the range.
func (r Range) Pages(off, n, pageSize uint64) []Addr {
	return r.AppendPages(nil, off, n, pageSize)
}

// AppendPages is Pages appending to dst, growing it at most once: a caller
// with a buffer that usually fits enumerates without allocating.
func (r Range) AppendPages(dst []Addr, off, n, pageSize uint64) []Addr {
	if n == 0 || off+n < n || off+n > r.Size {
		return dst
	}
	first := r.Start.MustAdd(off).AlignDown(pageSize)
	last := r.Start.MustAdd(off + n - 1).AlignDown(pageSize)
	span, _ := first.Distance(last)
	dst = slices.Grow(dst, int(span/pageSize)+1)
	for p := first; ; p = p.MustAdd(pageSize) {
		dst = append(dst, p)
		if p == last {
			break
		}
	}
	return dst
}

// String renders the range as "start+size".
func (r Range) String() string {
	return fmt.Sprintf("%v+%d", r.Start, r.Size)
}
