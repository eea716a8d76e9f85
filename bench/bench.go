// Package bench is khazbench, the repository's benchmark: five named
// closed-loop workloads driven through the public khazana API, end-to-end
// numbers from an untraced run, and a per-layer split measured from
// outside the program — spans recorded by a transport decorator, deltas of
// the program's own counters, and fixed-count probes of each layer's
// exported functions. README.md says why each workload exists and which
// layer metric should move which end-to-end metric.
package bench

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"khazana/internal/telemetry"
)

// Options selects one benchmark run: one workload, one seed, traced or not.
type Options struct {
	Workload string
	Seed     int64
	// Duration is the measured time. An untraced run spends all of it in
	// the timed windows; a traced run splits it between an untraced
	// reference window and the traced window.
	Duration time.Duration
	// Warmup runs the workload unmeasured first, so descriptor caches,
	// frame pools and TCP connections are filled. Every reported number
	// uses the Warmup constant; only tests pass something shorter.
	Warmup time.Duration
	// SetupRounds is how many times an untraced run sets the workload up.
	// Every reported number uses the SetupRounds constant; only tests pass
	// fewer.
	SetupRounds int
	// Trace selects the per-layer run instead of the end-to-end run.
	Trace bool
	// TraceOut, when set on a traced run, is a directory that receives the
	// spans as <workload>.spans.jsonl.
	TraceOut string
}

// Metric is one reported number.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations stand behind the value (latency
	// samples for a percentile, operations for a rate or a per-op mean).
	Samples int64 `json:"samples"`
}

// Result is the outcome of one run.
type Result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// Attempted counts client operations started in the measured windows,
	// Failed those that returned an error or read a wrong stamp, and
	// Mismatched the wrong stamps among them (any is a corrupted byte).
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	Mismatched int64    `json:"mismatched"`
	Metrics    []Metric `json:"metrics"`
	// Notes says what went wrong, one line per problem.
	Notes []string `json:"notes,omitempty"`
}

// Correct reports whether every operation succeeded and every page read,
// in the loop and in the end-of-run pass, carried the right stamp.
func (r *Result) Correct() bool { return r.Failed == 0 && r.Mismatched == 0 }

// Metric returns the named metric's value, and whether it is present.
func (r *Result) Metric(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// add reports a metric declared in spec.go, which supplies its unit.
func (r *Result) add(name string, v float64, samples int64) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in spec.go")
	}
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v, Unit: unit, Samples: samples})
}

func (r *Result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Warmup is the unmeasured warm-up before every reported run. It is part of
// what "warm" means for each number, so it is not a setting.
const Warmup = 2 * time.Second

// SetupRounds is how many times a reported untraced run sets the workload
// up; setup_s is the median, the last round's cluster is the one measured.
// Set-ups take milliseconds, so many are cheap, and the median of many is
// what keeps so short a time steady.
const SetupRounds = 45

const (
	// slices is how many equal windows the timed run is cut into; every
	// end-to-end number is the median over them, so that one disturbed
	// window (a neighbour's burst, a long collection) does not move it.
	slices = 5
	// traceCap bounds the span buffer; the traced window ends early when
	// it fills (cached_read fills it in a few seconds).
	traceCap = 1 << 20
)

// Run performs one benchmark run.
func Run(ctx context.Context, o Options) (*Result, error) {
	if o.Duration <= 0 {
		return nil, fmt.Errorf("bench: duration must be positive")
	}
	// client.peak_rss_mb is the process's high-water mark. When one process
	// makes several runs (-workload all, -repeat), give back the previous
	// run's heap and restart the mark, as far as the kernel allows; the
	// driver's one run per process needs neither.
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the mark is cumulative
	if o.Trace {
		return runTraced(ctx, o)
	}
	return runEndToEnd(ctx, o)
}

// session is one workload set up on one cluster.
type session struct {
	w workload
	c *cluster
	// gen is the workload's page-generation counter.
	gen *atomic.Uint64
	// setup is how long boot took.
	setup time.Duration
}

// boot starts the workload's cluster, sets the workload up and reads every
// page back: cluster start, region create, populate and check are what
// setup_s times.
func boot(ctx context.Context, o Options, tr *Tracer) (*session, error) {
	w, err := newWorkload(o.Workload, o.Seed)
	if err != nil {
		return nil, err
	}
	if w.clients() > runtime.NumCPU() {
		return nil, fmt.Errorf("bench: %s needs %d client goroutines, machine has %d CPUs", o.Workload, w.clients(), runtime.NumCPU())
	}
	// Collect the previous round's cluster now, not at some point inside
	// the few milliseconds being timed.
	runtime.GC()
	t0 := time.Now()
	c, err := newCluster(w.spec(), tr)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, c: c, gen: new(atomic.Uint64)}
	r := s.recorder(nil, false)
	err = w.setup(ctx, c, r)
	if err == nil {
		c.settle()
		err = w.verify(ctx, r)
	}
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("bench: %s set-up: %w", o.Workload, err)
	}
	s.setup = time.Since(t0)
	return s, nil
}

func (s *session) recorder(tr *Tracer, detail bool) *recorder {
	return newRecorder(tr, detail, s.w.exact(), s.gen)
}

// window is one measured stretch of the closed loop.
type window struct {
	recs    []*recorder
	elapsed time.Duration
	// allocBytes and allocs are the process-wide heap allocation over the
	// window: the client library runs in the caller's process, so its
	// garbage is the caller's cost.
	allocBytes, allocs uint64
}

// window runs every client's closed loop for d, or until tr's buffer fills
// when tr is recording.
func (s *session) window(ctx context.Context, d time.Duration, tr *Tracer, detail bool) window {
	win := window{recs: make([]*recorder, s.w.clients())}
	for i := range win.recs {
		win.recs[i] = s.recorder(tr, detail)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i, r := range win.recs {
		wg.Add(1)
		go func(i int, r *recorder) {
			defer wg.Done()
			for !stop.Load() {
				s.w.step(ctx, i, r)
			}
		}(i, r)
	}
	for deadline := t0.Add(d); ; {
		left := time.Until(deadline)
		if left <= 0 || (tr.Enabled() && tr.Full()) {
			break
		}
		time.Sleep(min(left, 5*time.Millisecond))
	}
	stop.Store(true)
	wg.Wait()
	win.elapsed = time.Since(t0)
	runtime.ReadMemStats(&after)
	win.allocBytes = after.TotalAlloc - before.TotalAlloc
	win.allocs = after.Mallocs - before.Mallocs
	return win
}

func (w *window) sum(f func(*recorder) int64) int64 {
	var n int64
	for _, r := range w.recs {
		n += f(r)
	}
	return n
}

func (w *window) ops() int64 { return w.sum(func(r *recorder) int64 { return r.ops }) }

// hist merges one histogram over the window's clients.
func (w *window) hist(f func(*recorder) *latHist) *latHist {
	var h latHist
	for _, r := range w.recs {
		h.merge(f(r))
	}
	return &h
}

func (w *window) opsPerSec() float64 { return float64(w.ops()) / w.elapsed.Seconds() }

// mbPerSec is user payload bytes over the mean time a client spent inside
// the operations that carried them.
func (w *window) mbPerSec() float64 {
	bytes := w.sum(func(r *recorder) int64 { return r.payloadBytes })
	ns := w.sum(func(r *recorder) int64 { return r.payloadNS })
	return ratio(float64(bytes)/1e6, float64(ns)/1e9/float64(len(w.recs)))
}

// tally adds the window's attempts and failures to res.
func (w *window) tally(res *Result) {
	res.Attempted += w.sum(func(r *recorder) int64 { return r.attempted })
	res.Failed += w.sum(func(r *recorder) int64 { return r.failed })
	res.Mismatched += w.sum(func(r *recorder) int64 { return r.mismatched })
	for i, r := range w.recs {
		if r.firstErr != nil {
			res.notef("client %d: %v", i, r.firstErr)
		}
	}
}

// overSlices returns the median over windows of f.
func overSlices(wins []window, f func(*window) float64) float64 {
	vals := make([]float64, len(wins))
	for i := range wins {
		vals[i] = f(&wins[i])
	}
	return median(vals)
}

func (w *window) opHist() *latHist { return w.hist(func(r *recorder) *latHist { return &r.op }) }

func (w *window) perOp(v uint64) float64 { return ratio(float64(v), float64(w.ops())) }

func runEndToEnd(ctx context.Context, o Options) (*Result, error) {
	res := &Result{Workload: o.Workload, Seed: o.Seed}
	var s *session
	var setups []float64
	for round := 0; round < max(o.SetupRounds, 1); round++ {
		if s != nil {
			s.c.Close()
		}
		var err error
		if s, err = boot(ctx, o, nil); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
	}
	defer s.c.Close()

	s.window(ctx, o.Warmup, nil, false)
	wins := make([]window, slices)
	var ops int64
	for i := range wins {
		wins[i] = s.window(ctx, o.Duration/slices, nil, false)
		wins[i].tally(res)
		ops += wins[i].ops()
	}
	if err := s.finalCheck(ctx, res); err != nil {
		return nil, err
	}

	res.add("setup_s", median(setups), int64(len(setups)))
	res.add("ops_per_s", overSlices(wins, (*window).opsPerSec), ops)
	res.add("mb_per_s", overSlices(wins, (*window).mbPerSec), ops)
	res.add("op_p50_us", overSlices(wins, func(w *window) float64 { return w.opHist().quantile(0.5) / 1e3 }), ops)
	res.add("alloc_bytes_per_op", overSlices(wins, func(w *window) float64 { return w.perOp(w.allocBytes) }), ops)
	res.add("allocs_per_op", overSlices(wins, func(w *window) float64 { return w.perOp(w.allocs) }), ops)
	return res, nil
}

// finalCheck is the end-of-run correctness pass: it lets announces land,
// then has the workload read back and fully verify its pages.
func (s *session) finalCheck(ctx context.Context, res *Result) error {
	s.c.settle()
	if err := s.w.verify(ctx, s.recorder(nil, false)); err != nil {
		res.Failed++
		if errors.Is(err, errMismatch) {
			res.Mismatched++
		}
		res.notef("end-of-run check: %v", err)
	}
	if res.Attempted == 0 {
		return fmt.Errorf("bench: %s attempted no operation", res.Workload)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark, 0 where
// /proc does not offer one.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, _ := strings.Cut(string(data), "VmHWM:")
	var kb float64
	if _, err := fmt.Sscanf(rest, "%f kB", &kb); err != nil {
		return 0
	}
	return kb / 1024
}

func runTraced(ctx context.Context, o Options) (*Result, error) {
	res := &Result{Workload: o.Workload, Seed: o.Seed, Trace: true}
	tr := NewTracer(traceCap)
	s, err := boot(ctx, o, tr)
	if err != nil {
		return nil, err
	}
	defer s.c.Close()

	s.window(ctx, o.Warmup, nil, false)
	// The reference window runs with the decorator installed but off; its
	// client-side numbers are the untraced ones the traced window's are
	// compared against.
	plain := s.window(ctx, o.Duration/2, nil, false)
	plain.tally(res)

	s.c.settle()
	before := readCounters(s.c.nodes)
	tr.Enable(true)
	traced := s.window(ctx, o.Duration/2, tr, true)
	s.c.settle()
	tr.Enable(false)
	delta := readCounters(s.c.nodes).since(before)
	traced.tally(res)

	if err := s.finalCheck(ctx, res); err != nil {
		return nil, err
	}
	spans, dropped := tr.Spans()
	if dropped > 0 {
		res.notef("%d spans dropped after the trace buffer filled", dropped)
	}
	st := Analyze(spans)
	if o.TraceOut != "" {
		if err := os.MkdirAll(o.TraceOut, 0o755); err != nil {
			return nil, err
		}
		if err := tr.WriteSpans(filepath.Join(o.TraceOut, o.Workload+".spans.jsonl"), spans); err != nil {
			return nil, err
		}
	}
	if o.Workload == CachedRead && st.Requests != 0 {
		res.Failed++
		res.notef("cached_read issued %d RPCs, want 0", st.Requests)
	}
	perLayer(res, &plain, &traced, &st, delta)
	if err := probes(res); err != nil {
		return nil, err
	}
	return res, nil
}

// perLayer turns the traced window, its trace and the counter deltas into
// the per-layer metrics. Per-op numbers divide by the traced window's
// completed operations.
func perLayer(res *Result, plain, traced *window, st *TraceStats, d counters) {
	ops := float64(traced.ops())
	n := traced.ops()
	perOp := func(v float64) float64 { return ratio(v, ops) }
	usPerOp := func(ns int64) float64 { return perOp(float64(ns) / 1e3) }

	res.add("transport.rpcs_per_op", perOp(float64(st.Requests)), n)
	res.add("transport.wire_bytes_per_op", perOp(d[telemetry.MetricTransportBytesOut]), n)
	res.add("transport.request_us_per_op", usPerOp(st.RequestNS), n)
	res.add("transport.self_us_per_op", usPerOp(st.TransportSelfNS), n)
	for _, c := range []struct {
		name  string
		class rpcClass
	}{
		{"transport.grant_rpc_us", rpcGrant},
		{"transport.release_rpc_us", rpcRelease},
		{"transport.update_rpc_us", rpcUpdate},
		{"transport.invalidate_rpc_us", rpcInvalidate},
		{"transport.repl_rpc_us", rpcRepl},
		{"transport.lookup_rpc_us", rpcLookup},
	} {
		res.add(c.name, ratio(float64(st.ClassNS[c.class])/1e3, float64(st.ClassN[c.class])), st.ClassN[c.class])
	}

	res.add("core.client_self_us_per_op", usPerOp(st.ClientSelfNS), n)
	res.add("core.handler_self_us_per_op", usPerOp(st.HandlerSelfNS), n)
	res.add("core.background_rpcs_per_op", perOp(float64(st.Background)), n)
	callP50 := func(name string, f func(*recorder) *latHist) {
		h := traced.hist(f)
		res.add(name, h.quantile(0.5)/1e3, int64(h.n))
	}
	callP50("core.lock_call_us_p50", func(r *recorder) *latHist { return &r.lockCall })
	callP50("core.unlock_call_us_p50", func(r *recorder) *latHist { return &r.unlockCall })
	views := traced.sum(func(r *recorder) int64 { return r.readViews })
	res.add("core.readview_call_ns", ratio(float64(traced.sum(func(r *recorder) int64 { return r.readViewNS })), float64(views)), views)
	res.add("core.lock_us_mean", d.mean(telemetry.MetricLockLatency)/1e3, int64(d.count(telemetry.MetricLockLatency)))
	res.add("core.release_us_mean", d.mean(telemetry.MetricReleaseLatency)/1e3, int64(d.count(telemetry.MetricReleaseLatency)))
	res.add("core.release_retries_per_op", perOp(d[telemetry.MetricReleaseRetries]), n)
	res.add("core.lookup_dir_hit_ratio", ratio(d[telemetry.MetricLookupDirHits], d[telemetry.MetricLookups]), int64(d[telemetry.MetricLookups]))
	res.add("core.lookup_stage_ring_us_mean", d.mean(telemetry.MetricLookupStageRing)/1e3, int64(d.count(telemetry.MetricLookupStageRing)))
	res.add("core.lookup_stage_walk_us_mean", d.mean(telemetry.MetricLookupStageWalk)/1e3, int64(d.count(telemetry.MetricLookupStageWalk)))
	callP50("core.reserve_us_p50", func(r *recorder) *latHist { return &r.reserveCall })
	callP50("core.allocate_us_p50", func(r *recorder) *latHist { return &r.allocateCall })
	callP50("core.unreserve_us_p50", func(r *recorder) *latHist { return &r.class[OpUnreserve] })

	spec := d.sum(telemetry.MetricPrefetchSpecPages)
	res.add("consistency.prefetch_hit_ratio", ratio(d[telemetry.MetricPrefetchHits], spec), int64(spec))
	res.add("consistency.prefetch_waste_per_op", perOp(d[telemetry.MetricPrefetchWaste]), n)
	res.add("consistency.update_batch_pages_per_op", perOp(d.sum(telemetry.MetricUpdateBatchPages)), n)
	res.add("consistency.invalidate_failures", d[telemetry.MetricCrewInvalidateFailures], n)

	res.add("store.mem_misses_per_op", perOp(d[telemetry.MetricMemMisses]), n)
	res.add("replog.commit_us_mean", d.mean(telemetry.MetricReplCommitLatency)/1e3, int64(d.count(telemetry.MetricReplCommitLatency)))
	res.add("replog.degraded_commits", d[telemetry.MetricReplDegradedCommits], int64(d.count(telemetry.MetricReplCommitLatency)))
	res.add("ring.lookups_per_op", perOp(d[telemetry.MetricRingLookups]), n)
	res.add("ring.fallback_walks_per_op", perOp(d[telemetry.MetricRingFallbackWalks]), n)

	res.add("bench.trace_overhead_ratio", ratio(traced.opsPerSec(), plain.opsPerSec()), n)

	// The client-side latencies that carry no bound, from the untraced
	// reference window: the p99, and the classes some workloads lack.
	oh := plain.opHist()
	res.add("client.op_p99_us", oh.quantile(0.99)/1e3, int64(oh.n))
	for _, c := range []struct {
		name  string
		class OpClass
		q     float64
	}{
		{"client.read_p50_us", OpRead, 0.50},
		{"client.read_p99_us", OpRead, 0.99},
		{"client.write_p50_us", OpWrite, 0.50},
		{"client.write_p99_us", OpWrite, 0.99},
		{"client.create_p50_us", OpCreate, 0.50},
		{"client.cold_open_p50_us", OpColdOpen, 0.50},
		{"client.cold_open_p99_us", OpColdOpen, 0.99},
	} {
		h := plain.hist(func(r *recorder) *latHist { return &r.class[c.class] })
		res.add(c.name, h.quantile(c.q)/1e3, int64(h.n))
	}
	res.add("client.fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
	// Read before the probes run, so that it is the workload's footprint.
	res.add("client.peak_rss_mb", peakRSSMB(), 1)
}
