package telemetry

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceCapacity bounds a node's span ring buffer.
const DefaultTraceCapacity = 512

// TraceID identifies one causal request tree across nodes.
type TraceID uint64

// String renders the ID the way khazctl and /traces print it.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// SpanID identifies one operation within a trace.
type SpanID uint64

// String renders the ID in the compact span form.
func (s SpanID) String() string { return fmt.Sprintf("%08x", uint64(s)) }

// SpanContext is the compact trace context carried in the wire envelope:
// the trace and the sender's span (the receiver's parent).
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

type ctxKey struct{}

// Slot is the storage a span's context lives in: a context.Context that
// wraps its parent and answers the span-context key itself, holding the
// SpanContext by value so starting a span allocates nothing beyond the
// slot. Whoever owns the memory owns the slot — core embeds two in every
// lock context (one for op.lock, one for op.unlock); StartSpan and
// ContextWith make a fresh one. A slot is written once, before its
// context is handed to anything, and never reused: the context escapes
// into goroutines that outlive the call that started the span, and they
// read the slot whenever they look the span up.
type Slot struct {
	context.Context
	sc SpanContext
}

// envelope is ContextWith's slot, open until the ContinueSpan it is handed
// to claims it: written a second time before anything else has seen it.
type envelope struct {
	Slot
	open bool
}

// Value answers the span-context key from the slot and defers every other
// key to the parent, so values set above the span (and stdlib wrappers
// derived below it) keep working.
func (s *Slot) Value(key any) any {
	if _, ok := key.(ctxKey); ok {
		return &s.sc
	}
	return s.Context.Value(key)
}

// ContextWith returns ctx carrying sc in an envelope for one handler.
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	return &envelope{Slot: Slot{Context: ctx, sc: sc}, open: true}
}

// FromContext extracts the span context, reporting whether one is set.
func FromContext(ctx context.Context) (SpanContext, bool) {
	if sc, ok := ctx.Value(ctxKey{}).(*SpanContext); ok {
		return *sc, true
	}
	return SpanContext{}, false
}

// idCtr feeds the ID generator; seeded once so concurrent daemons in one
// test process do not collide.
var idCtr atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		idCtr.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		idCtr.Store(uint64(time.Now().UnixNano()))
	}
}

// newID returns a well-mixed process-unique 64-bit ID (splitmix64 over an
// atomic counter).
func newID() uint64 {
	z := idCtr.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// NewTraceID mints a trace identity.
func NewTraceID() TraceID { return TraceID(newID()) }

// NewSpanID mints a span identity.
func NewSpanID() SpanID { return SpanID(newID()) }

// SpanRecord is one finished span in a node's ring buffer.
type SpanRecord struct {
	Trace    TraceID       `json:"trace"`
	Span     SpanID        `json:"span"`
	Parent   SpanID        `json:"parent,omitempty"`
	Node     uint32        `json:"node"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
}

// Recorder is a bounded ring buffer of finished spans. Spans wrap every
// Lock and Unlock (op.lock, op.unlock) as well as every traced RPC
// handler; only the cached read between them (ReadView) records none.
// Recording takes a mutex and copies one SpanRecord into the ring —
// nothing is allocated — and the live span's context sits in a Slot its
// starter owns (see Slot).
type Recorder struct {
	mu   sync.Mutex
	buf  []SpanRecord
	next int
	n    int
}

// NewRecorder creates a recorder keeping the last capacity spans.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Recorder{buf: make([]SpanRecord, capacity)}
}

// Record appends one span, evicting the oldest when full.
func (r *Recorder) Record(s SpanRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Len returns the number of retained spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Spans copies the retained spans, oldest first.
func (r *Recorder) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Flight is an in-progress span; its zero value is a no-op. Finish records
// the span into the recorder it was started against.
type Flight struct {
	rec    *Recorder
	trace  TraceID
	span   SpanID
	parent SpanID
	node   uint32
	name   string
	start  time.Time
}

// StartSpan begins a span as a child of any span context already in ctx
// (a new root trace otherwise) and returns ctx carrying the new span's
// context. With a nil recorder it returns ctx unchanged and a no-op
// Flight, so disabled telemetry costs one branch and no allocation.
func StartSpan(ctx context.Context, rec *Recorder, node uint32, name string) (context.Context, Flight) {
	if rec == nil {
		return ctx, Flight{}
	}
	return StartSpanIn(ctx, new(Slot), rec, node, name)
}

// StartSpanIn is StartSpan with the returned context stored in slot, which
// the caller owns and has not used before (see Slot): nothing is
// allocated.
func StartSpanIn(ctx context.Context, slot *Slot, rec *Recorder, node uint32, name string) (context.Context, Flight) {
	if rec == nil {
		return ctx, Flight{}
	}
	f := Flight{rec: rec, node: node, name: name, start: time.Now(), span: NewSpanID()}
	if sc, ok := FromContext(ctx); ok {
		f.trace, f.parent = sc.Trace, sc.Span
	} else {
		f.trace = NewTraceID()
	}
	slot.Context, slot.sc = ctx, f.Context()
	return slot, f
}

// ContinueSpan is StartSpan restricted to requests that already carry a
// trace: handlers use it so untraced background traffic does not mint new
// root traces. It claims an open envelope, so a served request costs one slot.
func ContinueSpan(ctx context.Context, rec *Recorder, node uint32, name string) (context.Context, Flight) {
	if rec == nil {
		return ctx, Flight{}
	}
	if e, ok := ctx.(*envelope); ok && e.open {
		f := Flight{rec: rec, node: node, name: name, start: time.Now(), span: NewSpanID(), trace: e.sc.Trace, parent: e.sc.Span}
		e.sc, e.open = f.Context(), false
		return e, f
	}
	if _, ok := FromContext(ctx); !ok {
		return ctx, Flight{}
	}
	return StartSpan(ctx, rec, node, name)
}

// Context returns the flight's span context (zero for a no-op flight).
func (f Flight) Context() SpanContext {
	return SpanContext{Trace: f.trace, Span: f.span}
}

// Finish records the span and returns how long it ran, so a caller timing
// the same interval into a histogram reads the clock once for both. The
// zero Flight records nothing and returns 0.
func (f Flight) Finish() time.Duration {
	if f.rec == nil {
		return 0
	}
	d := time.Since(f.start)
	f.rec.Record(SpanRecord{
		Trace:    f.trace,
		Span:     f.span,
		Parent:   f.parent,
		Node:     f.node,
		Name:     f.name,
		Start:    f.start,
		Duration: d,
	})
	return d
}
