// Package experiments checks every figure and qualitative claim in the
// paper's evaluation (DESIGN.md §4 has the index). The paper reports no
// numbers, so each experiment's claim is a shape, and each test asserts
// the count behind that shape: RPCs per operation, lookup steps, copies
// that survive. Every cluster runs at zero latency, and no test compares
// two timings. The root package's benchmarks (bench_test.go, one group
// per experiment) measure the rates.
package experiments

import (
	"context"
	"testing"

	"khazana"
)

// newCluster builds an n-node in-process cluster at zero latency, closed
// when the test ends.
func newCluster(t *testing.T, n int, opts ...khazana.ClusterOption) *khazana.Cluster {
	t.Helper()
	c, err := khazana.NewCluster(n, append([]khazana.ClusterOption{khazana.WithStoreDir(t.TempDir())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// mkRegion reserves and allocates a region on a node, and waits for the
// ring owners to hold the allocated descriptor: the reserve's and the
// allocate's announces land in either order, and a lookup answered in
// between caches a descriptor the first lock must refresh.
func mkRegion(t *testing.T, n *khazana.Node, size uint64, attrs khazana.Attrs) khazana.Addr {
	t.Helper()
	ctx := context.Background()
	start, err := n.Reserve(ctx, size, attrs, "bench")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Allocate(ctx, start, "bench"); err != nil {
		t.Fatal(err)
	}
	n.Core().RingSettle()
	return start
}

// readOnce lock-reads size bytes at start on node.
func readOnce(ctx context.Context, n *khazana.Node, start khazana.Addr, size uint64) ([]byte, error) {
	lk, err := n.Lock(ctx, khazana.Range{Start: start, Size: size}, khazana.LockRead, "bench")
	if err != nil {
		return nil, err
	}
	defer lk.Unlock(ctx)
	return lk.Read(start, size)
}

// writeOnce lock-writes data at start on node.
func writeOnce(ctx context.Context, n *khazana.Node, start khazana.Addr, data []byte) error {
	lk, err := n.Lock(ctx, khazana.Range{Start: start, Size: uint64(len(data))}, khazana.LockWrite, "bench")
	if err != nil {
		return err
	}
	defer lk.Unlock(ctx)
	return lk.Write(start, data)
}

// eachPage runs fn under its own lock on every page of [start,
// start+size): the per-page baseline leg (E10's scan, E13's per-page
// cycle) is this loop, a batch of one per page, not a mode inside the
// daemon.
func eachPage(ctx context.Context, n *khazana.Node, start khazana.Addr, size, pageSize uint64, mode khazana.LockMode, fn func(lk *khazana.Lock, page khazana.Addr) error) error {
	for off := uint64(0); off < size; off += pageSize {
		page := start.MustAdd(off)
		lk, err := n.Lock(ctx, khazana.Range{Start: page, Size: pageSize}, mode, "bench")
		if err != nil {
			return err
		}
		err = fn(lk, page)
		if uerr := lk.Unlock(ctx); err == nil {
			err = uerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// quietRPCs drains every node's in-flight ring announces and returns the
// network's request count. With the background loops off, announces are
// the only requests a node sends off its caller's goroutine; every other
// request, and every fan-out, completes before the call that made it
// returns.
func quietRPCs(c *khazana.Cluster) uint64 {
	for {
		r1, _ := c.Network.Stats()
		for _, n := range c.Nodes() {
			n.Core().RingSettle()
			n.Core().ReplSettle()
		}
		if r2, _ := c.Network.Stats(); r1 == r2 {
			return r2
		}
	}
}

// countRPCs returns the RPCs one run of op makes, counted between two
// quiet points of the network, so that the announces op starts are its
// own and nothing else is.
func countRPCs(t *testing.T, c *khazana.Cluster, op func() error) uint64 {
	t.Helper()
	before := quietRPCs(c)
	if err := op(); err != nil {
		t.Fatal(err)
	}
	return quietRPCs(c) - before
}
