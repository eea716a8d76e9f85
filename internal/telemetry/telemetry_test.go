package telemetry

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Add(2)
	c.Add(3)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("same name must resolve to the same counter")
	}

	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}

	h := r.Histogram("h")
	h.Observe(0)
	h.Observe(1)
	h.Observe(1023)
	h.Observe(1 << 50) // overflow bucket
	if h.Count() != 4 {
		t.Fatalf("hist count = %d, want 4", h.Count())
	}
	if h.Sum() != 0+1+1023+(1<<50) {
		t.Fatalf("hist sum = %d", h.Sum())
	}
}

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{^uint64(0), HistBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
		if idx := bucketIndex(c.v); idx < HistBuckets-1 && c.v >= BucketBound(idx) {
			t.Errorf("value %d not below its bucket bound", c.v)
		}
	}
}

func TestNopRegistryIsSafe(t *testing.T) {
	r := Nop()
	r.Counter("x").Add(1)
	r.Gauge("y").Set(3)
	r.Histogram("z").Observe(9)
	r.Histogram("z").ObserveSince(time.Now())
	if r.Counter("x").Load() != 0 || r.Gauge("y").Load() != 0 || r.Histogram("z").Count() != 0 {
		t.Fatal("nop instruments must read zero")
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nop snapshot must be empty")
	}
	if r.Tracer() != nil {
		t.Fatal("nop registry must have a nil tracer")
	}
	ctx, fl := StartSpan(context.Background(), r.Tracer(), 1, "op")
	fl.Finish() // must not panic
	if _, ok := FromContext(ctx); ok {
		t.Fatal("nop StartSpan must not install a span context")
	}
}

func TestSnapshotSortedAndTrimmed(t *testing.T) {
	r := New()
	r.Counter("b").Add(1)
	r.Counter("a").Add(2)
	r.Histogram("h").Observe(5) // bucket 3
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a" || s.Counters[1].Name != "b" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if len(s.Histograms) != 1 || len(s.Histograms[0].Buckets) != 4 {
		t.Fatalf("histogram buckets not trimmed: %+v", s.Histograms)
	}
	if s.Histograms[0].Mean() != 5 {
		t.Fatalf("mean = %v, want 5", s.Histograms[0].Mean())
	}
}

func TestRecorderRingWraps(t *testing.T) {
	rec := NewRecorder(3)
	for i := 1; i <= 5; i++ {
		rec.Record(SpanRecord{Span: SpanID(i)})
	}
	if rec.Len() != 3 {
		t.Fatalf("len = %d, want 3", rec.Len())
	}
	spans := rec.Spans()
	if len(spans) != 3 || spans[0].Span != 3 || spans[2].Span != 5 {
		t.Fatalf("ring kept wrong spans: %+v", spans)
	}
}

func TestSpanParenting(t *testing.T) {
	rec := NewRecorder(8)
	ctx, root := StartSpan(context.Background(), rec, 1, "root")
	sc, ok := FromContext(ctx)
	if !ok || sc.Trace == 0 || sc.Span == 0 {
		t.Fatalf("root context missing: %+v", sc)
	}
	_, child := ContinueSpan(ctx, rec, 2, "child")
	child.Finish()
	root.Finish()

	// Untraced contexts must not start continuation spans.
	_, none := ContinueSpan(context.Background(), rec, 2, "orphan")
	none.Finish()

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	if spans[0].Name != "child" || spans[1].Name != "root" {
		t.Fatalf("order wrong: %+v", spans)
	}
	if spans[0].Trace != spans[1].Trace {
		t.Fatal("child must share the root trace")
	}
	if spans[0].Parent != spans[1].Span {
		t.Fatal("child's parent must be the root span")
	}
	if spans[1].Parent != 0 {
		t.Fatal("root must have no parent")
	}
}

// TestContinueSpanClaimsEnvelope: a handler span continued from a
// transport's envelope (ContextWith) takes over the envelope's slot, so a
// served request costs one slot, and the span is the envelope's child. The
// slot is claimed once: a second ContinueSpan below the handler's span
// makes a slot of its own and leaves the handler's span in place.
func TestContinueSpanClaimsEnvelope(t *testing.T) {
	rec := NewRecorder(8)
	sender := SpanContext{Trace: 7, Span: 9}
	var handler, nested context.Context
	if avg := testing.AllocsPerRun(100, func() {
		env := ContextWith(context.Background(), sender)
		var fl Flight
		handler, fl = ContinueSpan(env, rec, 2, "handler")
		if handler != env {
			t.Fatal("the handler span did not claim the envelope's slot")
		}
		fl.Finish()
	}); avg != 1 {
		t.Fatalf("an envelope plus its handler span allocate %.2f objects, want 1 (the envelope)", avg)
	}
	hsc, _ := FromContext(handler)
	nested, fl := ContinueSpan(handler, rec, 2, "nested")
	fl.Finish()
	if nested == handler {
		t.Fatal("a claimed slot was claimed again")
	}
	if got, _ := FromContext(handler); got != hsc {
		t.Fatalf("the handler's span context changed to %+v after a nested span", got)
	}
	spans := rec.Spans()
	h, n := spans[len(spans)-2], spans[len(spans)-1]
	if h.Trace != sender.Trace || h.Parent != sender.Span || h.Span != hsc.Span {
		t.Fatalf("handler span %+v is not the sender's child", h)
	}
	if n.Trace != sender.Trace || n.Parent != h.Span {
		t.Fatalf("nested span %+v is not the handler span's child", n)
	}
}

func TestIDsUnique(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 || seen[id] {
			t.Fatalf("duplicate or zero trace ID %v", id)
		}
		seen[id] = true
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("core.lookups").Add(3)
	r.Gauge("store.mem_pages").Set(12)
	r.Histogram("core.lock_latency_ns").Observe(900)
	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE khazana_core_lookups counter",
		"khazana_core_lookups 3",
		"khazana_store_mem_pages 12",
		"khazana_core_lock_latency_ns_count 1",
		"khazana_core_lock_latency_ns_sum 900",
		`khazana_core_lock_latency_ns_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestSpanContextNoAlloc: a span started into a caller-owned slot
// allocates nothing from start to finish, and the slot is a full
// context — a child started below a stdlib wrapper of it still finds the
// span through the Value chain.
func TestSpanContextNoAlloc(t *testing.T) {
	rec := NewRecorder(8)
	parent := context.Background()
	slots := make([]Slot, 0, 256) // caller-owned; each slot is used once
	var took time.Duration
	if avg := testing.AllocsPerRun(200, func() {
		slots = slots[:len(slots)+1]
		_, fl := StartSpanIn(parent, &slots[len(slots)-1], rec, 1, "op")
		took = fl.Finish()
	}); avg != 0 {
		t.Fatalf("span in a caller-owned slot allocates %.2f objects, want 0", avg)
	}
	if took <= 0 {
		t.Fatalf("Finish returned %v, want the span's duration", took)
	}

	type userKey struct{}
	var slot Slot
	ctx, root := StartSpanIn(context.WithValue(parent, userKey{}, "kept"), &slot, rec, 1, "root")
	wrapped, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if wrapped.Value(userKey{}) != "kept" {
		t.Fatal("a value set above the span is hidden by the slot")
	}
	_, child := StartSpan(wrapped, rec, 2, "child")
	child.Finish()
	root.Finish()
	spans := rec.Spans()
	c, r := spans[len(spans)-2], spans[len(spans)-1]
	if c.Name != "child" || c.Trace != r.Trace || c.Parent != r.Span {
		t.Fatalf("child %+v does not descend from root %+v", c, r)
	}
	cancel()
	if ctx.Err() != nil || wrapped.Err() == nil {
		t.Fatal("cancellation must flow down through the slot, not up")
	}
}
