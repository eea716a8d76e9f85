package experiments

import (
	"context"
	"fmt"

	"khazana"
	"khazana/internal/telemetry"
)

// E16WriteThrough measures batched replication write-through: the home
// of a MinReplicas=3 region releases multi-page writes, and the
// write-through groups the dirty pages into exactly one UpdateBatch RPC
// per replica.
func E16WriteThrough(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:        "E16",
		Title:     "batched replication write-through",
		Predicted: "a multi-page release writes through with exactly one update RPC per replica",
	}
	batched, err := e16WriteThrough(cfg)
	if err != nil {
		return res, err
	}
	res.Rows = []Row{
		{Name: "write-through, batched", Value: fmt.Sprintf("%d update RPCs for %d releases to %d replicas", batched.updateRPCs, e16WriteCycles, e16Secondaries),
			Detail: fmt.Sprintf("%d total RPCs incl. invalidations; exactly one UpdateBatch per replica per release", batched.requests)},
	}
	res.Pass = batched.updateRPCs == uint64(e16WriteCycles*e16Secondaries)
	return res, nil
}

const (
	// 4 releases of 8 dirty pages each, replicated from the home to 2
	// secondaries (MinReplicas=3 on a 3-node cluster).
	e16PageSize    = 4096
	e16WriteCycles = 4
	e16WritePages  = 8
	e16Secondaries = 2
)

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
