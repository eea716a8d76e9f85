package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"khazana"
	"khazana/internal/transport"
)

// principal is the identity every benchmark operation runs as.
const principal = khazana.Principal("bench")

// pageSize is the page size of every benchmark region (the paper's 4 KB).
const pageSize = khazana.DefaultPageSize

// cluster is a set of daemons in this process, over the in-process network
// or loopback TCP. It mirrors khazana.NewCluster (node 1 is cluster
// manager, map home and genesis; background loops off) but builds each
// transport itself, so a Tracer can decorate it before the node sees it.
type cluster struct {
	nodes []*khazana.Node
	// net is the in-process network, nil over TCP.
	net *transport.Network
	// closers are the bare transports under the nodes.
	closers []transport.Transport
	dir     string
}

type clusterSpec struct {
	nodes    int
	memPages int
	tcp      bool
	// noReadAhead starts the nodes without speculative read-ahead grants.
	noReadAhead bool
}

// newCluster starts spec.nodes daemons. A non-nil tracer wraps every
// transport; a nil one leaves the transports bare, so an untraced run has
// no decorator in its path at all.
func newCluster(spec clusterSpec, tr *Tracer) (*cluster, error) {
	dir, err := os.MkdirTemp("", "khazbench-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	ok := false
	defer func() {
		if !ok {
			c.Close()
		}
	}()

	inner := make([]transport.Transport, spec.nodes)
	if spec.tcp {
		tcps := make([]*transport.TCP, spec.nodes)
		for i := range tcps {
			t, err := transport.NewTCP(khazana.NodeID(i+1), "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			tcps[i], inner[i] = t, t
			c.closers = append(c.closers, t)
		}
		// The decorator hides *transport.TCP from the node, so the peer
		// table is filled here, on the inner values, before any node joins.
		for i, t := range tcps {
			for j, peer := range tcps {
				if i != j {
					t.AddPeer(khazana.NodeID(j+1), peer.Addr())
				}
			}
		}
	} else {
		c.net = transport.NewNetwork()
		for i := range inner {
			ep, err := c.net.Attach(khazana.NodeID(i + 1))
			if err != nil {
				return nil, err
			}
			inner[i] = ep
			c.closers = append(c.closers, ep)
		}
	}

	ctx := context.Background()
	for i, t := range inner {
		if tr != nil {
			t = tr.Wrap(t)
		}
		n, err := khazana.StartNode(ctx, khazana.NodeConfig{
			ID:             khazana.NodeID(i + 1),
			Transport:      t,
			StoreDir:       filepath.Join(dir, fmt.Sprintf("node-%d", i+1)),
			MemPages:       spec.memPages,
			NoReadAhead:    spec.noReadAhead,
			ClusterManager: 1,
			MapHome:        1,
			Genesis:        i == 0,
		})
		if err != nil {
			return nil, fmt.Errorf("start node %d: %w", i+1, err)
		}
		c.nodes = append(c.nodes, n)
	}
	// With the heartbeat loop off a node's membership view is whatever its
	// join returned; one explicit round gives every node the full view, and
	// with it the same ring.
	for _, n := range c.nodes {
		n.Core().SendHeartbeat()
	}
	c.settle()
	ok = true
	return c, nil
}

// node returns daemon i (1-based, matching node IDs).
func (c *cluster) node(i int) *khazana.Node { return c.nodes[i-1] }

// settle waits until every in-flight ring announce has landed.
func (c *cluster) settle() {
	for _, n := range c.nodes {
		n.Core().RingSettle()
	}
}

// Close closes every transport and removes the store directories. It does
// not call Node.Close: with the background loops off a node owns no
// goroutine, and Node.Close's only other effect is to checkpoint every page
// into a directory removed on the next line — a second of file writes per
// cluster, SetupRounds times per run.
func (c *cluster) Close() {
	c.settle()
	for _, t := range c.closers {
		_ = t.Close()
	}
	_ = os.RemoveAll(c.dir)
}
