// Package telemetry is Khazana's observability layer: a lock-free metrics
// registry (counters, gauges, fixed-bucket histograms) plus a causal RPC
// trace recorder. The paper's evaluation depends on seeing each layer of
// the distributed data path (lookup fan-out §3.1–3.2, lock and consistency
// traffic §3.3, release retries §3.5); this package is the substrate every
// layer reports into.
//
// The package is deliberately a leaf: standard library only, imported by
// wire, transport, core, and consistency alike.
//
// Instruments are nil-safe. telemetry.Nop() returns a nil *Registry whose
// instrument getters return nil instruments; recording on a nil instrument
// is a single predictable branch. The cached zero-copy read path carries
// exactly one plain counter increment batched under a mutex it already
// holds (even an uncontended atomic add is ~8% of that path), so telemetry
// keeps it at zero allocations and within noise of the uninstrumented
// build.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// HistBuckets is the fixed bucket count of every histogram: bucket i holds
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i), giving
// power-of-two resolution from 1 unit to ~9 minutes of nanoseconds before
// the final bucket absorbs the overflow.
const HistBuckets = 40

// Counter is a monotonically increasing metric. The zero of a disabled
// registry is a nil *Counter, on which Add and Load are no-ops.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can move both ways (resident pages, queue
// depths). Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket power-of-two histogram. Latencies are
// observed in nanoseconds; size-like metrics (batch page counts) use the
// same buckets unitless. Observation is two atomic adds and one atomic
// increment — no locks, no allocation.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [HistBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveSince records the elapsed nanoseconds since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	d := time.Since(start)
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// bucketIndex maps a value to its bucket: the position of its highest set
// bit, clamped into the fixed bucket array.
func bucketIndex(v uint64) int {
	i := 0
	for v != 0 {
		v >>= 1
		i++
	}
	if i >= HistBuckets {
		return HistBuckets - 1
	}
	return i
}

// BucketBound returns the exclusive upper bound of bucket i (every value
// in bucket i is < 2^i). The last bucket is unbounded.
func BucketBound(i int) uint64 {
	if i >= HistBuckets-1 {
		return ^uint64(0)
	}
	return 1 << uint(i)
}

// Registry holds a node's named instruments and its trace recorder.
// Instrument resolution (Counter, Gauge, Histogram) takes a mutex and is
// meant for startup; the instruments themselves are lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	rec      *Recorder
}

// New creates a registry with a trace recorder of the default capacity.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		rec:      NewRecorder(DefaultTraceCapacity),
	}
}

// Nop returns the disabled registry: nil, whose instrument getters return
// nil instruments that record nothing.
func Nop() *Registry { return nil }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// Tracer returns the registry's span recorder (nil when disabled).
func (r *Registry) Tracer() *Recorder {
	if r == nil {
		return nil
	}
	return r.rec
}

// CounterStat is one counter in a snapshot.
type CounterStat struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeStat is one gauge in a snapshot.
type GaugeStat struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramStat is one histogram in a snapshot. Buckets is trimmed after
// the last non-empty bucket; bucket i's bound is BucketBound(i).
type HistogramStat struct {
	Name    string   `json:"name"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []uint64 `json:"buckets"`
}

// Mean returns the average observed value, 0 when empty.
func (h HistogramStat) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of every instrument, sorted by name.
type Snapshot struct {
	Counters   []CounterStat   `json:"counters"`
	Gauges     []GaugeStat     `json:"gauges"`
	Histograms []HistogramStat `json:"histograms"`
}

// Snapshot copies every instrument's current state. Values are read with
// atomic loads; the snapshot as a whole is not a consistent cut, which is
// fine for monitoring.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterStat{Name: name, Value: c.Load()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeStat{Name: name, Value: g.Load()})
	}
	for name, h := range r.hists {
		hs := HistogramStat{Name: name, Count: h.count.Load(), Sum: h.sum.Load()}
		last := -1
		var buckets [HistBuckets]uint64
		for i := range h.buckets {
			buckets[i] = h.buckets[i].Load()
			if buckets[i] != 0 {
				last = i
			}
		}
		if last >= 0 {
			hs.Buckets = append([]uint64(nil), buckets[:last+1]...)
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
