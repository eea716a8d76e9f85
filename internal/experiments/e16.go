package experiments

import (
	"context"
	"fmt"

	"khazana"
	"khazana/internal/telemetry"
)

// E16PrefetchAndWriteThrough measures the two data-path optimizations of
// the adaptive pipelining PR:
//
// Leg A — adaptive read-ahead grant pipelining. A remote reader sweeps a
// region sequentially in fixed windows; the home detects the stream and
// piggybacks speculative grants+frames for the next K predicted pages
// onto each demand reply, so later windows are served entirely from
// local speculative copies with zero RPCs. Compared against
// WithNoReadAhead() on total requests for the same sweep (§2's
// "aggressive prefetching" on the grant path).
//
// Leg B — batched replication write-through. The home of a MinReplicas=3
// region releases multi-page writes; the write-through groups the dirty
// pages into exactly one UpdateBatch RPC per replica.
func E16PrefetchAndWriteThrough(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:        "E16",
		Title:     "adaptive read-ahead vs WithNoReadAhead + batched replication write-through",
		Predicted: "a sequential read-mostly sweep needs at least 2x fewer RPCs with read-ahead on (later windows consume speculative grants locally), and a multi-page release writes through with exactly one update RPC per replica",
	}

	prefetchOn, err := e16ReadSweep(cfg, false)
	if err != nil {
		return res, err
	}
	prefetchOff, err := e16ReadSweep(cfg, true)
	if err != nil {
		return res, err
	}
	batched, err := e16WriteThrough(cfg)
	if err != nil {
		return res, err
	}

	ratio := float64(prefetchOff.requests) / float64(prefetchOn.requests)
	res.Rows = []Row{
		{Name: "sequential sweep, read-ahead on", Value: fmt.Sprintf("%d RPCs", prefetchOn.requests),
			Detail: fmt.Sprintf("%d windows; %d speculative pages shipped, %d consumed without an RPC, %d wasted", e16Windows, prefetchOn.specPages, prefetchOn.hits, prefetchOn.waste)},
		{Name: "sequential sweep, WithNoReadAhead", Value: fmt.Sprintf("%d RPCs", prefetchOff.requests),
			Detail: "every window pays a demand grant batch and a release batch"},
		{Name: "grant-RPC reduction", Value: fmt.Sprintf("%.1fx", ratio),
			Detail: "E16 gate: must be >= 2x"},
		{Name: "write-through, batched", Value: fmt.Sprintf("%d update RPCs for %d releases to %d replicas", batched.updateRPCs, e16WriteCycles, e16Secondaries),
			Detail: fmt.Sprintf("%d total RPCs incl. invalidations; exactly one UpdateBatch per replica per release", batched.requests)},
	}
	res.Pass = ratio >= 2 &&
		prefetchOn.hits > 0 &&
		batched.updateRPCs == uint64(e16WriteCycles*e16Secondaries)
	return res, nil
}

const (
	// Leg A geometry: a 256-page region swept in 8-page read windows.
	e16Pages     = 256
	e16WindowLen = 8
	e16Windows   = e16Pages / e16WindowLen
	e16PageSize  = 4096
	// Leg B geometry: 4 releases of 8 dirty pages each, replicated from
	// the home to 2 secondaries (MinReplicas=3 on a 3-node cluster).
	e16WriteCycles = 4
	e16WritePages  = 8
	e16Secondaries = 2
)

// e16Sweep is one read-sweep measurement.
type e16Sweep struct {
	requests  uint64
	specPages uint64
	hits      uint64
	waste     uint64
}

// e16ReadSweep measures the network requests a remote sequential reader
// spends sweeping the region once, with read-ahead on or off.
func e16ReadSweep(cfg Config, noReadAhead bool) (e16Sweep, error) {
	var out e16Sweep
	opts := []khazana.ClusterOption{}
	if noReadAhead {
		opts = append(opts, khazana.WithNoReadAhead())
	}
	c, err := newCluster(cfg, 2, opts...)
	if err != nil {
		return out, err
	}
	defer c.Close()
	ctx := context.Background()

	const size = uint64(e16Pages * e16PageSize)
	start, err := mkRegion(ctx, c.Node(1), size, khazana.Attrs{})
	if err != nil {
		return out, err
	}
	if err := writeOnce(ctx, c.Node(1), start, make([]byte, size)); err != nil {
		return out, err
	}

	reqs0, _ := c.Network.Stats()
	addr := start
	for w := 0; w < e16Windows; w++ {
		r := khazana.Range{Start: addr, Size: e16WindowLen * e16PageSize}
		lk, err := c.Node(2).Lock(ctx, r, khazana.LockRead, "bench")
		if err != nil {
			return out, err
		}
		if _, err := lk.Read(addr, e16PageSize); err != nil {
			//khazana:ignore-err best-effort cleanup; the read error is what matters
			_ = lk.Unlock(ctx)
			return out, err
		}
		if err := lk.Unlock(ctx); err != nil {
			return out, err
		}
		addr = addr.MustAdd(e16WindowLen * e16PageSize)
	}
	reqs1, _ := c.Network.Stats()
	out.requests = reqs1 - reqs0

	for _, cs := range c.Node(2).Core().MetricsSnapshot().Counters {
		switch cs.Name {
		case telemetry.MetricPrefetchHits:
			out.hits = cs.Value
		case telemetry.MetricPrefetchWaste:
			out.waste = cs.Value
		}
	}
	for _, hs := range c.Node(1).Core().MetricsSnapshot().Histograms {
		if hs.Name == telemetry.MetricPrefetchSpecPages {
			out.specPages = hs.Sum
		}
	}
	return out, nil
}

// e16Write is one write-through measurement.
type e16Write struct {
	requests   uint64
	updateRPCs uint64
}

// e16WriteThrough measures the replication traffic a home spends
// releasing multi-page writes to a replicated region.
func e16WriteThrough(cfg Config) (e16Write, error) {
	var out e16Write
	c, err := newCluster(cfg, e16Secondaries+1)
	if err != nil {
		return out, err
	}
	defer c.Close()
	ctx := context.Background()

	const size = uint64(e16WritePages * e16PageSize)
	start, err := mkRegion(ctx, c.Node(1), size, khazana.Attrs{MinReplicas: e16Secondaries + 1})
	if err != nil {
		return out, err
	}
	if err := writeOnce(ctx, c.Node(1), start, make([]byte, size)); err != nil {
		return out, err
	}
	// Extend the home list to MinReplicas and seed the replicas, so the
	// measured releases write through to a stable replica set.
	c.Node(1).Core().MaintainReplicas()

	reqs0, _ := c.Network.Stats()
	data := make([]byte, size)
	for cycle := 0; cycle < e16WriteCycles; cycle++ {
		data[0] = byte(cycle + 1)
		if err := writeOnce(ctx, c.Node(1), start, data); err != nil {
			return out, err
		}
	}
	reqs1, _ := c.Network.Stats()
	out.requests = reqs1 - reqs0

	// The update-batch histogram observes once per UpdateBatch sent, so
	// its count is exactly the number of replication RPCs (the network
	// total above also includes the invalidations write acquires fan
	// out to the replica copyset).
	for _, hs := range c.Node(1).Core().MetricsSnapshot().Histograms {
		if hs.Name == telemetry.MetricUpdateBatchPages {
			out.updateRPCs = hs.Count
		}
	}
	return out, nil
}
