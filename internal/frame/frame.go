// Package frame implements the refcounted, pooled page frames that back
// Khazana's zero-copy page-data pipeline. The paper's §3.4 storage
// hierarchy treats node RAM as a cache of global pages; a Frame is one
// such cached page, managed as a first-class resource instead of an
// ad-hoc []byte so that a cache hit is a refcount increment rather than
// an allocation + copy.
//
// Ownership rules (enforced by the khazlint framerelease analyzer):
//
//   - Every call that returns a *Frame (Alloc, AllocZero, Copy, Retain,
//     Exclusive, store Get, message TakeFrame, ...) confers an obligation
//     on the caller to eventually call Release exactly once.
//   - Passing a frame to a function is a borrow: the callee must Retain
//     if it wants to keep the frame beyond the call.
//   - Returning a frame from a function transfers the obligation to the
//     caller. Storing a frame into a struct/map is an ownership transfer
//     and must be annotated //khazana:frame-owner <reason>.
//
// Frames are immutable while shared: a frame whose refcount may exceed 1
// must never be written through Bytes(). A lock-holder that wants to
// mutate calls Exclusive(), which hands back the same frame when the
// caller is the sole owner and a private copy-on-write clone otherwise.
// Because every store keeps its own reference while a frame is
// discoverable, an in-place mutation can only ever happen on a frame no
// other goroutine can reach. Nodes linked in one process share page
// frames by reference, so this rule is also what keeps them isolated.
//
// A leaked frame (Release never called) degrades to ordinary garbage:
// the GC reclaims it and the pool merely misses. Releasing a frame that
// is still referenced elsewhere is the dangerous direction — it recycles
// memory under a live reader — so when ownership is unclear, leak.
package frame

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// minShift is the smallest pooled class (512 B).
	minShift = 9
	// maxShift is the largest pooled class (1 MiB); bigger frames fall
	// back to the allocator so one giant transfer does not pin memory.
	maxShift   = 20
	numClasses = maxShift - minShift + 1
)

// pools holds one sync.Pool of *Frame per size class. A pooled Frame
// keeps its backing array, so reuse recycles both the header and the
// page memory.
var pools [numClasses]sync.Pool

// classFor returns the pool class index for a frame of n bytes, or -1
// when n is outside the pooled range.
func classFor(n int) int {
	if n <= 0 || n > 1<<maxShift {
		return -1
	}
	shift := bits.Len(uint(n - 1))
	if shift < minShift {
		shift = minShift
	}
	return shift - minShift
}

// Frame is one refcounted page buffer.
type Frame struct {
	data    []byte
	class   int32
	refs    atomic.Int32
	version atomic.Uint64
}

// Alloc returns a frame of n bytes with one reference. The contents are
// unspecified (pooled memory is not cleared); callers must overwrite the
// whole frame. Use AllocZero for a zero-filled frame.
func Alloc(n int) *Frame {
	class := classFor(n)
	if class < 0 {
		f := &Frame{data: make([]byte, n), class: -1}
		f.refs.Store(1)
		return f
	}
	if v := pools[class].Get(); v != nil {
		f := v.(*Frame)
		f.data = f.data[:n]
		f.version.Store(0)
		f.refs.Store(1)
		return f
	}
	f := &Frame{data: make([]byte, n, 1<<(class+minShift)), class: int32(class)}
	f.refs.Store(1)
	return f
}

// AllocZero returns a zero-filled frame of n bytes with one reference.
func AllocZero(n int) *Frame {
	f := Alloc(n)
	b := f.data
	for i := range b {
		b[i] = 0
	}
	return f
}

// Copy returns a frame holding a copy of b with one reference.
func Copy(b []byte) *Frame {
	f := Alloc(len(b))
	copy(f.data, b)
	return f
}

// Bytes returns the frame's contents. The view is valid only while the
// caller holds a reference, and must not be written unless the caller
// owns the frame exclusively (see Exclusive).
func (f *Frame) Bytes() []byte { return f.data }

// Len returns the frame's size in bytes.
func (f *Frame) Len() int { return len(f.data) }

// TotalLen returns the summed size of the frames *fs holds (0 for nil).
func TotalLen(fs *[]*Frame) (n int) {
	for i := 0; fs != nil && i < len(*fs); i++ {
		n += (*fs)[i].Len()
	}
	return n
}

// Refs returns the current reference count (for tests and diagnostics).
func (f *Frame) Refs() int32 { return f.refs.Load() }

// Version returns the page version stamped on the frame, when known.
func (f *Frame) Version() uint64 { return f.version.Load() }

// SetVersion stamps the frame with a page version.
func (f *Frame) SetVersion(v uint64) { f.version.Store(v) }

// Retain adds a reference and returns f for chaining. The caller takes
// on an obligation to Release it.
func (f *Frame) Retain() *Frame {
	if f.refs.Add(1) <= 1 {
		panic("frame: Retain of released frame")
	}
	return f
}

// Release drops one reference. When the last reference is dropped the
// frame returns to its size-class pool. Releasing more times than
// retained panics: that is a use-after-free in the making.
func (f *Frame) Release() {
	n := f.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("frame: Release of freed frame (refs=%d)", n))
	}
	if f.class >= 0 {
		f.data = f.data[:cap(f.data)]
		pools[f.class].Put(f)
	}
}

// Exclusive returns a frame the caller owns exclusively, consuming the
// caller's reference to f. When the caller is the sole owner it is f
// itself; otherwise it is a private copy (copy-on-write) and the
// caller's reference to the shared original is released. Use it as
//
//	f = f.Exclusive()
//
// before mutating a frame obtained from a shared store.
func (f *Frame) Exclusive() *Frame {
	if f.refs.Load() == 1 {
		return f
	}
	c := Copy(f.data)
	c.version.Store(f.version.Load())
	f.Release()
	return c
}
