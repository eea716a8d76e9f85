// Package cluster implements Khazana's cluster management (paper §3.1):
// nodes organize into groups of closely-connected nodes called clusters,
// each with one or more designated cluster managers responsible for being
// aware of other cluster locations, caching hint information about regions
// stored in the local cluster, and representing the cluster during
// inter-cluster communication.
//
// The manager also maintains hints of the sizes of free address space
// managed by other nodes and answers the "is this region cached in a
// nearby node?" query that sits between the region directory and the
// address map tree walk on the lookup path (§3.2). When its hints miss,
// the manager can fall back to the cluster-walk algorithm (§3.1): asking
// each cluster member directly.
package cluster

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/wire"
)

// DefaultHintCapacity bounds the manager's region-location hint cache.
const DefaultHintCapacity = 4096

// DefaultExpiry is how long a member may go silent before being presumed
// dead.
const DefaultExpiry = 5 * time.Second

// Member is the manager's view of one cluster node.
type Member struct {
	ID        ktypes.NodeID
	Addr      string
	LastSeen  time.Time
	FreeTotal uint64
	FreeMax   uint64
}

// LookupFunc asks one node whether it knows the region containing addr;
// it is supplied by the daemon (a RegionLookup RPC) and used by the
// cluster walk.
type LookupFunc func(ctx context.Context, node ktypes.NodeID, addr gaddr.Addr) (found bool)

// Manager holds cluster-manager state. It is driven by the daemon's
// message handler.
type Manager struct {
	mu      sync.Mutex
	self    ktypes.NodeID
	members map[ktypes.NodeID]*Member
	// hints maps region start addresses to nodes recently known to cache
	// the region. It is read and written under mu.
	hints *region.Index[*hint]
	now   func() time.Time
	// peers are managers of other clusters in the hierarchy (§3.1);
	// queries that miss locally are forwarded to them.
	peers []ktypes.NodeID
}

// hint records the nodes recently known to cache one region.
type hint struct {
	nodes []ktypes.NodeID
}

// NewManager creates the manager state for node self.
func NewManager(self ktypes.NodeID) *Manager {
	m := &Manager{
		self:    self,
		members: make(map[ktypes.NodeID]*Member),
		hints:   region.NewIndex[*hint](DefaultHintCapacity),
		now:     time.Now,
	}
	// The manager is always a member of its own cluster.
	m.members[self] = &Member{ID: self, LastSeen: m.now()}
	return m
}

// Self returns the manager's node ID.
func (m *Manager) Self() ktypes.NodeID { return m.self }

// SetPeerManagers installs the managers of peer clusters for
// inter-cluster query forwarding (§3.1: cluster managers are "responsible
// for being aware of other cluster locations ... and representing the
// local cluster during inter-cluster communication").
func (m *Manager) SetPeerManagers(peers []ktypes.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.peers = append([]ktypes.NodeID(nil), peers...)
}

// PeerManagers returns the peer cluster managers.
func (m *Manager) PeerManagers() []ktypes.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]ktypes.NodeID(nil), m.peers...)
}

// Join admits a node and returns the current view.
func (m *Manager) Join(node ktypes.NodeID, addr string) *wire.ClusterView {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[node]
	if !ok {
		mem = &Member{ID: node}
		m.members[node] = mem
	}
	mem.Addr = addr
	mem.LastSeen = m.now()
	return m.viewLocked()
}

// Leave removes a node (§3.1: machines can dynamically enter and leave).
func (m *Manager) Leave(node ktypes.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if node != m.self {
		delete(m.members, node)
	}
	var empty []gaddr.Addr
	m.hints.Range(func(start gaddr.Addr, h *hint) {
		h.nodes = slices.DeleteFunc(h.nodes, func(n ktypes.NodeID) bool { return n == node })
		if len(h.nodes) == 0 {
			empty = append(empty, start)
		}
	})
	for _, start := range empty {
		m.hints.Delete(start)
	}
}

// Heartbeat refreshes liveness and free-space hints, and records the
// reporting node as a cacher of the regions it lists.
func (m *Manager) Heartbeat(hb *wire.Heartbeat) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[hb.Node]
	if !ok {
		mem = &Member{ID: hb.Node}
		m.members[hb.Node] = mem
	}
	mem.LastSeen = m.now()
	mem.FreeTotal = hb.FreeTotal
	mem.FreeMax = hb.FreeMax
	for _, start := range hb.Regions {
		m.addHintLocked(start, hb.Node)
	}
}

// AddHint records that node caches the region starting at start.
func (m *Manager) AddHint(start gaddr.Addr, node ktypes.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.addHintLocked(start, node)
}

func (m *Manager) addHintLocked(start gaddr.Addr, node ktypes.NodeID) {
	m.hints.Update(start, func(h *hint, ok bool) (*hint, bool) {
		switch {
		case h == nil:
			h = &hint{}
		case !ok:
			// Recycle the evicted hint's node list for the new start.
			h.nodes = h.nodes[:0]
		}
		if !slices.Contains(h.nodes, node) {
			h.nodes = append(h.nodes, node)
		}
		return h, true
	})
}

// Query answers "which nearby nodes cache the region containing addr?"
// from the hint cache: the hint with the greatest start <= addr names the
// region likely containing it. The hint carries no size, so this may be a
// false positive — the requester verifies with the named node. Stale
// hints are possible and tolerated (§3.2).
func (m *Manager) Query(addr gaddr.Addr) (nodes []ktypes.NodeID, found bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hints.Floor(addr, nil)
	if !ok {
		return nil, false
	}
	alive := m.aliveOfLocked(h.nodes)
	return alive, len(alive) > 0
}

func (m *Manager) aliveOfLocked(ns []ktypes.NodeID) []ktypes.NodeID {
	cutoff := m.now().Add(-DefaultExpiry)
	out := make([]ktypes.NodeID, 0, len(ns))
	for _, n := range ns {
		if mem, ok := m.members[n]; ok && (n == m.self || mem.LastSeen.After(cutoff)) {
			out = append(out, n)
		}
	}
	return out
}

// Walk performs the cluster-walk algorithm (§3.1): ask each live member
// whether it knows the region containing addr, returning the nodes that
// do. maxHits bounds the walk (0 = first hit wins).
func (m *Manager) Walk(ctx context.Context, addr gaddr.Addr, lookup LookupFunc, maxHits int) []ktypes.NodeID {
	if maxHits <= 0 {
		maxHits = 1
	}
	var hits []ktypes.NodeID
	for _, node := range m.Alive() {
		if node == m.self {
			continue
		}
		if lookup(ctx, node, addr) {
			hits = append(hits, node)
			m.AddHint(addr, node)
			if len(hits) >= maxHits {
				break
			}
		}
	}
	return hits
}

// Alive lists members seen within the expiry window, in stable order.
func (m *Manager) Alive() []ktypes.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	cutoff := m.now().Add(-DefaultExpiry)
	out := make([]ktypes.NodeID, 0, len(m.members))
	for id, mem := range m.members {
		if id == m.self || mem.LastSeen.After(cutoff) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Members returns a snapshot of all tracked members.
func (m *Manager) Members() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Member, 0, len(m.members))
	for _, mem := range m.members {
		out = append(out, *mem)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MemberAddr returns a member's transport address.
func (m *Manager) MemberAddr(id ktypes.NodeID) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[id]
	if !ok {
		return "", false
	}
	return mem.Addr, true
}

// BestFreeSpace returns the member advertising the largest free region,
// for reservation routing (§3.1 free-space hints).
func (m *Manager) BestFreeSpace() (ktypes.NodeID, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var best ktypes.NodeID
	var max uint64
	for id, mem := range m.members {
		if mem.FreeMax > max {
			best, max = id, mem.FreeMax
		}
	}
	return best, max
}

// View returns the membership view sent to joiners.
func (m *Manager) View() *wire.ClusterView {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewLocked()
}

func (m *Manager) viewLocked() *wire.ClusterView {
	members := make([]ktypes.NodeID, 0, len(m.members))
	for id := range m.members {
		members = append(members, id)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	return &wire.ClusterView{Manager: m.self, Members: members}
}

// HintCount returns the number of cached region hints.
func (m *Manager) HintCount() int {
	return m.hints.Len()
}
