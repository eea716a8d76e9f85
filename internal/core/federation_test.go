package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/transport"
	"khazana/internal/wire"
)

// testFederation builds two clusters on one network: nodes 1-3 form
// cluster A (manager n1, which is also the global map home and genesis)
// and nodes 4-6 form cluster B (manager n4). The clusters share the one
// global address map and nothing else: each builds its ring from its own
// members, and no manager knows the other cluster. mutate may wrap a
// node's transport before it starts.
func testFederation(t *testing.T, mutate ...func(i int, cfg *Config)) (*transport.Network, []*Node) {
	t.Helper()
	net := transport.NewNetwork()
	nodes := make([]*Node, 6)
	for i := 0; i < 6; i++ {
		id := ktypes.NodeID(i + 1)
		tr, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		manager := ktypes.NodeID(1)
		if i >= 3 {
			manager = 4
		}
		cfg := Config{
			ID:             id,
			Transport:      tr,
			StoreDir:       filepath.Join(t.TempDir(), fmt.Sprintf("n%d", id)),
			ClusterManager: manager,
			MapHome:        1,
			Genesis:        id == 1,
		}
		for _, fn := range mutate {
			fn(i, &cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		nodes[i] = node
	}
	// One heartbeat round gives every member its cluster's full view.
	heartbeatAll(nodes)
	return net, nodes
}

// destCounter counts outbound requests by destination node.
type destCounter struct {
	transport.Transport
	mu sync.Mutex
	to map[ktypes.NodeID]int
}

func (c *destCounter) Request(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
	c.mu.Lock()
	c.to[to]++
	c.mu.Unlock()
	return c.Transport.Request(ctx, to, m)
}

// TestFederationCrossClusterLookup: a region homed in cluster B is not in
// cluster A's ring, so a cluster-A node's cold lookup misses the ring and
// resolves through the walk over the one global address map, then
// announces what it found to its own ring's owners: the next cold lookup
// in cluster A one-hops.
func TestFederationCrossClusterLookup(t *testing.T) {
	_, nodes := testFederation(t)
	ctx := context.Background()

	// Region homed on node 5 (cluster B).
	start := mkRegion(t, nodes[4], 4096, region.Attrs{}, "")
	lc, err := nodes[4].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	_ = nodes[4].Write(lc, start, []byte("cluster B data"))
	_ = nodes[4].Unlock(ctx, lc)

	// Node 2 (cluster A) resolves the region.
	n2 := nodes[1]
	walks := n2.mRingFallbacks.Load()
	rlc, err := n2.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
	if err != nil {
		t.Fatalf("cross-cluster lock: %v", err)
	}
	got, _ := n2.Read(rlc, start, 14)
	_ = n2.Unlock(ctx, rlc)
	if string(got) != "cluster B data" {
		t.Fatalf("cross-cluster read %q", got)
	}
	if w := n2.mRingFallbacks.Load() - walks; w != 1 {
		t.Fatalf("cross-cluster lookup: %d ring fallbacks to the tree walk; want 1", w)
	}

	// The walk repaired cluster A's ring: node 3 one-hops.
	n3 := nodes[2]
	hits, walks := n3.Statistics().RingHits.Load(), n3.mRingFallbacks.Load()
	if _, err := n3.GetAttr(ctx, start); err != nil {
		t.Fatal(err)
	}
	if h, w := n3.Statistics().RingHits.Load()-hits, n3.mRingFallbacks.Load()-walks; h != 1 || w != 0 {
		t.Fatalf("after the repair node 3 took %d ring hits and %d tree walks; want 1 and 0", h, w)
	}
}

// TestFederationForwardedQueriesDoNotLoop: a lookup of an address no
// cluster holds ends after one ring miss and one walk of the global map,
// with ErrInaccessible. Nothing is forwarded between clusters: the
// cluster-A node sends no request to a cluster-B node.
func TestFederationForwardedQueriesDoNotLoop(t *testing.T) {
	counter := &destCounter{to: make(map[ktypes.NodeID]int)}
	_, nodes := testFederation(t, func(i int, cfg *Config) {
		if i == 1 {
			counter.Transport = cfg.Transport
			cfg.Transport = counter
		}
	})
	ctx := context.Background()
	n2 := nodes[1]
	walks := n2.mRingFallbacks.Load()
	if _, err := n2.GetAttr(ctx, gaddr.FromUint64(0x7777777000)); !errors.Is(err, ErrInaccessible) {
		t.Fatalf("lookup of an unknown address = %v, want ErrInaccessible", err)
	}
	if w := n2.mRingFallbacks.Load() - walks; w != 1 {
		t.Fatalf("lookup of an unknown address took %d tree walks, want 1", w)
	}
	counter.mu.Lock()
	defer counter.mu.Unlock()
	for _, b := range []ktypes.NodeID{4, 5, 6} {
		if counter.to[b] != 0 {
			t.Fatalf("cluster-A node sent %d requests to cluster-B node %v: %v", counter.to[b], b, counter.to)
		}
	}
}

func TestFederationBothClustersShareAddressSpace(t *testing.T) {
	_, nodes := testFederation(t)
	ctx := context.Background()
	// Reservations from both clusters go through the single map home
	// and must never overlap.
	a := mkRegion(t, nodes[1], 8192, region.Attrs{}, "")
	b := mkRegion(t, nodes[4], 8192, region.Attrs{}, "")
	ra := gaddr.Range{Start: a, Size: 8192}
	rb := gaddr.Range{Start: b, Size: 8192}
	if ra.Overlaps(rb) {
		t.Fatalf("cross-cluster reservations overlap: %v %v", ra, rb)
	}
	// And both are globally accessible.
	for _, n := range []*Node{nodes[2], nodes[5]} {
		for _, r := range []gaddr.Range{ra, rb} {
			lk, err := n.Lock(ctx, r, ktypes.LockRead, "")
			if err != nil {
				t.Fatalf("node %v lock %v: %v", n.ID(), r, err)
			}
			_ = n.Unlock(ctx, lk)
		}
	}
}
