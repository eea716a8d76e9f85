package bench

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func near(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(vals, c.p); !near(got, c.want, 1e-9) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q3 := quartiles([]float64{5, 4, 3, 2, 1})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v, want 1.5, 4.5", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles of ten = %v, %v, want 1.75, 5.25", q1, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	q1, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles of two = %v, %v, want 7.5, 22.5", q1, q3)
	}
}

func TestHistQuantile(t *testing.T) {
	var h latHist
	for ns := int64(1); ns <= 100000; ns++ {
		h.record(ns)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50000}, {0.99, 99000}, {0.001, 100}} {
		if got := h.quantile(c.q); !near(got, c.want, 1+c.want/histSub) {
			t.Errorf("quantile(%v) = %v, want %v within a bucket", c.q, got, c.want)
		}
	}
	// Every value lands in a bucket whose bounds contain it.
	for _, ns := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 123456789, 1 << 40} {
		lo, hi := histBounds(histIndex(ns))
		if v := float64(ns); (v < lo || v >= hi) && histIndex(ns) != histBuckets-1 {
			t.Errorf("%d ns in bucket [%v, %v)", ns, lo, hi)
		}
	}
	var merged latHist
	merged.merge(&h)
	merged.merge(&h)
	if merged.n != 2*h.n || merged.quantile(0.5) != h.quantile(0.5) {
		t.Errorf("merge changed the median: %v vs %v", merged.quantile(0.5), h.quantile(0.5))
	}
}

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{10, 20}}, 10},
		{[]interval{{10, 20}, {30, 40}}, 20},
		{[]interval{{30, 40}, {10, 20}, {15, 35}}, 30},   // overlap counted once
		{[]interval{{10, 50}, {20, 30}}, 40},             // nested
		{[]interval{{-5, 5}, {95, 120}}, 10},             // clipped to [0, 100]
		{[]interval{{10, 20}, {10, 20}, {20, 25}}, 15},   // duplicates and adjacency
		{[]interval{{200, 300}}, 0},                      // wholly outside
		{[]interval{{0, 100}, {40, 60}, {90, 100}}, 100}, // full cover
	} {
		if got := unionLen(c.ivs, 0, 100); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

// TestAnalyzeSelfTime checks the self-time arithmetic on a hand-built
// trace: an op that waits for one request, whose handler issues two
// overlapping nested requests, plus an announce that outlives the op.
func TestAnalyzeSelfTime(t *testing.T) {
	spans := []Span{
		{Kind: SpanOp, Op: 1, Start: 0, End: 1000, Node: 2},                               // 1
		{Kind: SpanRequest, Parent: 1, Op: 1, Start: 100, End: 900, Node: 2, Peer: 1},     // 2
		{Kind: SpanHandler, Parent: 2, Op: 1, Start: 200, End: 800, Node: 1, Peer: 2},     // 3
		{Kind: SpanRequest, Parent: 3, Op: 1, Start: 300, End: 500, Node: 1, Peer: 3},     // 4
		{Kind: SpanRequest, Parent: 3, Op: 1, Start: 400, End: 700, Node: 1, Peer: 4},     // 5
		{Kind: SpanHandler, Parent: 4, Op: 1, Start: 350, End: 450, Node: 3, Peer: 1},     // 6
		{Kind: SpanRequest, Parent: 1, Op: 1, Start: 950, End: 1500, Node: 2, Peer: 3},    // 7: outlives the op
		{Kind: SpanRequest, Start: 2000, End: 2100, Node: 1, Peer: 2},                     // 8: parentless
		{Kind: SpanRequest, Parent: 1, Op: 1, Start: 960, End: 0, Node: 2, Peer: 3},       // 9: unfinished
		{Kind: SpanHandler, Parent: 7, Op: 1, Start: 1000, End: 1400, Node: 3, Peer: 2},   // 10
		{Kind: SpanHandler, Parent: 8, Start: 2010, End: 2090, Node: 2, Peer: 1},          // 11
		{Kind: SpanHandler, Parent: 5, Op: 1, Start: 450, End: 650, Node: 4, Peer: 1},     // 12
		{Kind: SpanOp, Op: 13, Start: 3000, End: 3040, Node: 2, Class: uint16(OpRead)},    // 13: no RPC at all
		{Kind: SpanRequest, Parent: 99, Start: 3100, End: 3200, Node: 1, Peer: 2},         // 14: parent out of range
		{Kind: SpanOp, Op: 15, Start: 4000, End: 0, Node: 2, Class: uint16(OpWrite)},      // 15: unfinished op
		{Kind: SpanRequest, Parent: 15, Op: 15, Start: 4010, End: 4020, Node: 2, Peer: 1}, // 16
	}
	st := Analyze(spans)
	want := TraceStats{
		Ops: 2, OpNS: 1040,
		Requests:   7, // 2, 4, 5, 7, 8, 14, 16
		Background: 3, // 7 outlives, 8 and 14 have no parent in the trace
		// op 1: 1000 - [100,900] = 200; op 13: 40.
		ClientSelfNS: 240,
		// 2: 800-600; 4: 200-100; 5: 300-200.
		TransportSelfNS: 400,
		// 3: 600 - union([300,500],[400,700]) = 200; 6: 100; 12: 200.
		HandlerSelfNS: 500,
		RequestNS:     800 + 200 + 300,
	}
	want.ClassN[rpcOther] = 7
	want.ClassNS[rpcOther] = 800 + 200 + 300 + 550 + 100 + 100 + 10
	if st != want {
		t.Errorf("Analyze =\n%+v, want\n%+v", st, want)
	}
}

// TestLinkByContainment checks that a handler recorded without a parent
// (TCP) is given the request that contains it, per node pair and kind.
func TestLinkByContainment(t *testing.T) {
	spans := []Span{
		{Kind: SpanOp, Op: 1, Start: 0, End: 1000, Node: 2},
		{Kind: SpanRequest, Parent: 1, Op: 1, Start: 100, End: 400, Node: 2, Peer: 1, Class: 7}, // 2
		{Kind: SpanRequest, Parent: 1, Op: 1, Start: 150, End: 500, Node: 2, Peer: 1, Class: 7}, // 3: overlaps 2
		{Kind: SpanHandler, Start: 200, End: 300, Node: 1, Peer: 2, Class: 7},                   // 4 -> 3 (latest start)
		{Kind: SpanHandler, Start: 250, End: 350, Node: 1, Peer: 2, Class: 7},                   // 5 -> 2 (3 is taken)
		{Kind: SpanHandler, Start: 200, End: 300, Node: 1, Peer: 2, Class: 8},                   // 6: other kind, no match
		{Kind: SpanHandler, Start: 200, End: 300, Node: 3, Peer: 2, Class: 7},                   // 7: other node, no match
		{Kind: SpanRequest, Parent: 1, Op: 1, Start: 600, End: 700, Node: 2, Peer: 1, Class: 7}, // 8
		{Kind: SpanHandler, Start: 650, End: 800, Node: 1, Peer: 2, Class: 7},                   // 9: sticks out, no match
	}
	linkByContainment(spans)
	for i, want := range map[int]uint64{3: 3, 4: 2, 5: 0, 6: 0, 8: 0} {
		if spans[i].Parent != want {
			t.Errorf("span %d parent = %d, want %d", i+1, spans[i].Parent, want)
		}
	}
	if spans[3].Op != 1 {
		t.Errorf("linked handler op = %d, want 1", spans[3].Op)
	}
}

// TestSpansInStartOrder holds the order linkByContainment searches on:
// spans begun from several goroutines are recorded in start order.
func TestSpansInStartOrder(t *testing.T) {
	tr := NewTracer(1 << 14)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1<<11; i++ {
				tr.end(tr.begin(Span{Kind: SpanRequest}, nil))
			}
		}()
	}
	wg.Wait()
	spans, dropped := tr.Spans()
	if dropped != 0 {
		t.Fatalf("%d spans dropped", dropped)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("span %d starts at %d, before span %d at %d", i+1, spans[i].Start, i, spans[i-1].Start)
		}
	}
}

func TestCheckPage(t *testing.T) {
	page := make([]byte, pageSize)
	fillPage(page, 7, 42)
	if !checkPage(page, 42, 7, true, true) || !checkPage(page, 42, 5, false, false) {
		t.Fatal("a freshly stamped page fails its check")
	}
	if checkPage(page, 43, 7, true, true) {
		t.Error("wrong page number accepted")
	}
	if checkPage(page, 42, 8, false, false) {
		t.Error("generation older than the acknowledged one accepted")
	}
	if checkPage(page, 42, 6, true, false) {
		t.Error("exact check accepted a newer generation")
	}
	page[pageSize-1] ^= 1
	if checkPage(page, 42, 7, true, false) {
		t.Error("corrupt tail accepted by the head-and-tail check")
	}
	page[pageSize-1] ^= 1
	page[2000] ^= 1
	if !checkPage(page, 42, 7, true, false) || checkPage(page, 42, 7, true, true) {
		t.Error("a corrupt byte mid-page must fail the full check only")
	}
	if checkPage(page[:100], 42, 7, true, false) {
		t.Error("short view accepted")
	}
}

func testOptions(name string, trace bool) Options {
	return Options{Workload: name, Seed: 1, Duration: 200 * time.Millisecond, Warmup: 50 * time.Millisecond, SetupRounds: 3, Trace: trace}
}

// TestWorkloads runs every workload briefly, untraced and traced, and
// checks that each run is correct and reports exactly the metrics
// BENCHMARK.json promises for it.
func TestWorkloads(t *testing.T) {
	for _, l := range Workloads {
		for _, trace := range []bool{false, true} {
			res, err := Run(context.Background(), testOptions(l.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", l.Name, trace, err)
			}
			if !res.Correct() || res.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d, mismatched %d", l.Name, trace, res.Attempted, res.Failed, res.Mismatched)
			}
			specs := EndToEnd
			if trace {
				specs = PerLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", l.Name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				v, ok := res.Metric(s.Name)
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", l.Name, trace, s.Name)
				case !trace && v <= 0:
					t.Errorf("%s: end-to-end %s = %v, must be positive", l.Name, s.Name, v)
				}
			}
			if !trace {
				continue
			}
			if v, _ := res.Metric("transport.rpcs_per_op"); (v == 0) != (l.Name == CachedRead) {
				t.Errorf("%s: transport.rpcs_per_op = %v", l.Name, v)
			}
			// ring.fallback_walks_per_op is expected 0 too but is not: on
			// region_churn an announce can still be in flight a cycle later.
			for _, zero := range []string{"replog.degraded_commits", "client.fail_ratio", "consistency.invalidate_failures", "core.release_retries_per_op"} {
				if v, _ := res.Metric(zero); v != 0 {
					t.Errorf("%s: %s = %v, want 0", l.Name, zero, v)
				}
			}
			if v, _ := res.Metric("replog.commit_us_mean"); (v > 0) != (l.Name == WriteReplicated) {
				t.Errorf("%s: replog.commit_us_mean = %v; only write_replicated engages the log", l.Name, v)
			}
		}
	}
}

// TestDecoratorTransparent checks on remote_scan that tracing changes
// nothing the program does — the traced window issues exactly as many RPCs
// per operation as the in-process network counts in an untraced one — and
// that the three self times account for the traced operation latency.
func TestDecoratorTransparent(t *testing.T) {
	ctx := context.Background()
	tr := NewTracer(traceCap)
	s, err := boot(ctx, testOptions(RemoteScan, true), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.c.Close()
	s.window(ctx, 100*time.Millisecond, nil, false)

	reqBefore, _ := s.c.net.Stats()
	plain := s.window(ctx, 200*time.Millisecond, nil, false)
	reqAfter, _ := s.c.net.Stats()
	untraced := float64(reqAfter-reqBefore) / float64(plain.ops())

	tr.Enable(true)
	traced := s.window(ctx, 200*time.Millisecond, tr, true)
	tr.Enable(false)
	spans, dropped := tr.Spans()
	if dropped != 0 {
		t.Fatalf("%d spans dropped", dropped)
	}
	st := Analyze(spans)
	if got := float64(st.Requests) / float64(traced.ops()); got != untraced {
		t.Errorf("rpcs_per_op traced %v, untraced %v", got, untraced)
	}
	if st.Background != 0 {
		t.Errorf("%d background requests on remote_scan", st.Background)
	}
	sum := st.ClientSelfNS + st.TransportSelfNS + st.HandlerSelfNS
	if !near(float64(sum), float64(st.OpNS), 0.05*float64(st.OpNS)) {
		t.Errorf("self times sum to %d ns, traced op latency is %d ns", sum, st.OpNS)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.WriteSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	dump, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), `"name":"PageReqBatch"`) || !strings.Contains(string(dump), `"kind":"op"`) {
		t.Errorf("trace dump lacks op or PageReqBatch spans")
	}
}

// TestManifest checks that the committed BENCHMARK.json is the one the
// tables in this package generate.
func TestManifest(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the bench directory: %v", err)
	}
	var got bytes.Buffer
	if err := WriteManifest(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("BENCHMARK.json differs from khazbench -manifest; regenerate it")
	}
}

func TestCompare(t *testing.T) {
	file := func(opsPerSec ...float64) string {
		var f File
		for _, v := range opsPerSec {
			f.Runs = append(f.Runs, Result{Workload: CachedRead, Metrics: []Metric{{Name: "ops_per_s", Value: v, Unit: "1/s"}}})
		}
		path := filepath.Join(t.TempDir(), "run.json")
		if err := f.Write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file(100, 101, 99, 100, 100)
	for _, c := range []struct {
		name    string
		other   string
		verdict string
		ok      bool
	}{
		{"same", file(100, 100, 101, 99, 100), " ok", true},
		{"faster", file(150, 151, 149, 150, 150), " ok", true},
		{"slower", file(70, 71, 69, 70, 70), "regressed", false},
		{"noisy", file(100, 140, 60, 100, 100), "unresolved", false},
	} {
		var out bytes.Buffer
		ok, err := Compare(&out, base, c.other)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: ok=%v, output:\n%s", c.name, ok, out.String())
		}
	}
}
