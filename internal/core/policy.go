package core

import (
	"context"
	"sync"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
)

// Load-aware migration policy. The paper sets the goal of "caching
// policies that balance the needs for load balancing, low latency access
// to data, availability behavior, and resource constraints" (§2) and
// lists "resource- and load-aware migration and replication policies" as
// future work (§7). This is a deliberately simple instance: each home
// tracks which node generates the consistency traffic for each region it
// homes, and when one remote node dominates, the region migrates there.

// accessTracker counts per-region consistency traffic by requester.
type accessTracker struct {
	mu sync.Mutex
	// counts[regionStart][node] = requests since the last decision.
	counts map[gaddr.Addr]map[ktypes.NodeID]uint64
}

func newAccessTracker() *accessTracker {
	return &accessTracker{counts: make(map[gaddr.Addr]map[ktypes.NodeID]uint64)}
}

// record notes one request from node for the region starting at start.
func (a *accessTracker) record(start gaddr.Addr, node ktypes.NodeID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m, ok := a.counts[start]
	if !ok {
		m = make(map[ktypes.NodeID]uint64)
		a.counts[start] = m
	}
	m[node]++
}

// dominant returns the node with the most recorded requests for the
// region and its share of the total, resetting the window.
func (a *accessTracker) dominant(start gaddr.Addr) (ktypes.NodeID, uint64, uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.counts[start]
	var best ktypes.NodeID
	var bestCount, total uint64
	for node, c := range m {
		total += c
		if c > bestCount {
			best, bestCount = node, c
		}
	}
	delete(a.counts, start)
	return best, bestCount, total
}

// forget drops a region's window (after unreserve or migration).
func (a *accessTracker) forget(start gaddr.Addr) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.counts, start)
}

// MigrationPolicy configures load-aware auto-migration.
type MigrationPolicy struct {
	// MinRequests is the number of tracked requests a region needs in a
	// window before a decision is made.
	MinRequests uint64
	// DominanceNum/DominanceDen: the dominant remote node must account
	// for at least Num/Den of the window's traffic.
	DominanceNum, DominanceDen uint64
}

// DefaultMigrationPolicy migrates when one remote node generated at least
// three quarters of a 16+ request window.
func DefaultMigrationPolicy() MigrationPolicy {
	return MigrationPolicy{MinRequests: 16, DominanceNum: 3, DominanceDen: 4}
}

// RunMigrationPolicy makes one pass over the regions homed here and
// migrates any region whose traffic is dominated by a single remote node.
// It returns the regions moved. Busy regions are skipped and retried on
// the next pass.
func (n *Node) RunMigrationPolicy(ctx context.Context, p MigrationPolicy) []gaddr.Addr {
	if p.DominanceDen == 0 {
		p = DefaultMigrationPolicy()
	}
	var moved []gaddr.Addr
	for _, desc := range n.homedDescs() {
		start := desc.Range.Start
		if home, err := desc.PrimaryHome(); err != nil || home != n.cfg.ID {
			continue
		}
		node, count, total := n.access.dominant(start)
		if total < p.MinRequests || node == ktypes.NilNode || node == n.cfg.ID {
			continue
		}
		if count*p.DominanceDen < total*p.DominanceNum {
			continue
		}
		if err := n.MigrateRegion(ctx, start, node, desc.Attrs.ACL.Owner); err != nil {
			continue // busy or unreachable; retry next pass
		}
		moved = append(moved, start)
	}
	return moved
}

// migrationLoop drives the policy in the background when configured.
func (n *Node) migrationLoop(interval time.Duration, p MigrationPolicy) {
	defer n.done.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			n.RunMigrationPolicy(ctx, p)
			cancel()
		case <-n.stop:
			return
		}
	}
}
