package khazana

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"khazana/internal/ktypes"
	"khazana/internal/transport"
)

// Cluster is an in-process Khazana deployment: a set of daemons connected
// by a simulated network. It is the unit the experiment harness, examples,
// and tests build on — node 1 is the cluster manager, map home, and
// genesis node, matching the single-cluster design of the paper's
// prototype (§3.1, §5).
type Cluster struct {
	// Network is the simulated network; use it to inject latency,
	// partitions, and crashes.
	Network *transport.Network
	nodes   []*Node
	dir     string
	ownDir  bool
	cfg     clusterConfig
}

// ClusterOption configures NewCluster.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	dir       string
	memPages  int
	diskPages int
	latency   time.Duration
	heartbeat time.Duration
	retry     time.Duration
	replica   time.Duration
	migration time.Duration
	tracer    func(NodeID, string)
}

// WithStoreDir roots every node's disk tier under dir (default: a temp
// directory removed on Close).
func WithStoreDir(dir string) ClusterOption {
	return func(c *clusterConfig) { c.dir = dir }
}

// WithMemPages bounds each node's RAM page cache.
func WithMemPages(n int) ClusterOption {
	return func(c *clusterConfig) { c.memPages = n }
}

// WithDiskPages bounds each node's disk page cache.
func WithDiskPages(n int) ClusterOption {
	return func(c *clusterConfig) { c.diskPages = n }
}

// WithLatency sets the simulated one-way network latency between nodes.
func WithLatency(d time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.latency = d }
}

// WithBackground enables the heartbeat, retry, and replica-maintenance
// loops at the given intervals.
func WithBackground(heartbeat, retry, replica time.Duration) ClusterOption {
	return func(c *clusterConfig) {
		c.heartbeat, c.retry, c.replica = heartbeat, retry, replica
	}
}

// WithAutoMigration enables the load-aware migration policy at the given
// interval on every node.
func WithAutoMigration(interval time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.migration = interval }
}

// WithTracer installs a Figure-2 step tracer on every node.
func WithTracer(fn func(node NodeID, step string)) ClusterOption {
	return func(c *clusterConfig) { c.tracer = fn }
}

// NewCluster starts count daemons (IDs 1..count) on a fresh simulated
// network.
func NewCluster(count int, opts ...ClusterOption) (*Cluster, error) {
	if count < 1 {
		return nil, fmt.Errorf("khazana: cluster needs at least one node")
	}
	var cfg clusterConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	ownDir := false
	if cfg.dir == "" {
		dir, err := os.MkdirTemp("", "khazana-cluster-")
		if err != nil {
			return nil, err
		}
		cfg.dir = dir
		ownDir = true
	}
	net := transport.NewNetwork()
	if cfg.latency > 0 {
		net.SetBaseLatency(cfg.latency)
	}
	c := &Cluster{Network: net, dir: cfg.dir, ownDir: ownDir, cfg: cfg}
	ctx := context.Background()
	for i := 1; i <= count; i++ {
		id := ktypes.NodeID(i)
		tr, err := net.Attach(id)
		if err != nil {
			c.Close()
			return nil, err
		}
		var tracer func(string)
		if cfg.tracer != nil {
			nid := id
			tracer = func(step string) { cfg.tracer(nid, step) }
		}
		node, err := StartNode(ctx, NodeConfig{
			ID:                id,
			Transport:         tr,
			StoreDir:          filepath.Join(cfg.dir, fmt.Sprintf("node-%d", i)),
			MemPages:          cfg.memPages,
			DiskPages:         cfg.diskPages,
			ClusterManager:    1,
			MapHome:           1,
			Genesis:           i == 1,
			HeartbeatInterval: cfg.heartbeat,
			RetryInterval:     cfg.retry,
			ReplicaInterval:   cfg.replica,
			MigrationInterval: cfg.migration,
			Tracer:            tracer,
		})
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("khazana: start node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

// AddNode starts one more daemon and attaches it to the cluster,
// exercising dynamic membership (§3.1: machines can dynamically enter and
// leave Khazana). The new daemon inherits the cluster's options, so a
// cache-bounded cluster stays homogeneous as it grows.
func (c *Cluster) AddNode() (*Node, error) {
	id := ktypes.NodeID(len(c.nodes) + 1)
	tr, err := c.Network.Attach(id)
	if err != nil {
		return nil, err
	}
	var tracer func(string)
	if c.cfg.tracer != nil {
		nid := id
		tracer = func(step string) { c.cfg.tracer(nid, step) }
	}
	node, err := StartNode(context.Background(), NodeConfig{
		ID:                id,
		Transport:         tr,
		StoreDir:          filepath.Join(c.dir, fmt.Sprintf("node-%d", id)),
		MemPages:          c.cfg.memPages,
		DiskPages:         c.cfg.diskPages,
		ClusterManager:    1,
		MapHome:           1,
		HeartbeatInterval: c.cfg.heartbeat,
		RetryInterval:     c.cfg.retry,
		ReplicaInterval:   c.cfg.replica,
		MigrationInterval: c.cfg.migration,
		Tracer:            tracer,
	})
	if err != nil {
		return nil, err
	}
	c.nodes = append(c.nodes, node)
	return node, nil
}

// Node returns daemon i (1-based, matching node IDs).
func (c *Cluster) Node(i int) *Node { return c.nodes[i-1] }

// Len returns the number of daemons.
func (c *Cluster) Len() int { return len(c.nodes) }

// Nodes returns all daemons.
func (c *Cluster) Nodes() []*Node { return append([]*Node(nil), c.nodes...) }

// Crash simulates a process failure of node i.
func (c *Cluster) Crash(i int) { c.Network.Crash(ktypes.NodeID(i)) }

// Restart clears node i's crashed state.
func (c *Cluster) Restart(i int) { c.Network.Restart(ktypes.NodeID(i)) }

// Partition cuts the link between nodes a and b.
func (c *Cluster) Partition(a, b int) {
	c.Network.Partition(ktypes.NodeID(a), ktypes.NodeID(b))
}

// Heal restores the link between nodes a and b.
func (c *Cluster) Heal(a, b int) {
	c.Network.Heal(ktypes.NodeID(a), ktypes.NodeID(b))
}

// Close stops every daemon and removes owned state.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		_ = n.Close()
	}
	if c.ownDir {
		_ = os.RemoveAll(c.dir)
	}
}
