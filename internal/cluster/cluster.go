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
	// the region.
	hints map[gaddr.Addr]*hint
	// recent closes the hints' recency ring: recent.next is the most
	// recently used hint, recent.prev the next eviction victim.
	recent  hint
	hintCap int
	expiry  time.Duration
	now     func() time.Time
	// peers are managers of other clusters in the hierarchy (§3.1);
	// queries that miss locally are forwarded to them.
	peers []ktypes.NodeID
}

// hint records the nodes recently known to cache the region starting at
// start. prev and next link it into the manager's recency ring.
type hint struct {
	start      gaddr.Addr
	nodes      []ktypes.NodeID
	prev, next *hint
}

// unlink takes h out of the recency ring.
func (h *hint) unlink() {
	h.prev.next = h.next
	h.next.prev = h.prev
	h.prev, h.next = nil, nil
}

// touchLocked makes h the most recently used hint.
func (m *Manager) touchLocked(h *hint) {
	if h.prev != nil {
		h.unlink()
	}
	h.prev, h.next = &m.recent, m.recent.next
	h.next.prev = h
	m.recent.next = h
}

// Option configures a Manager.
type Option func(*Manager)

// WithHintCapacity bounds the hint cache.
func WithHintCapacity(n int) Option {
	return func(m *Manager) {
		if n > 0 {
			m.hintCap = n
		}
	}
}

// WithExpiry sets the heartbeat expiry.
func WithExpiry(d time.Duration) Option {
	return func(m *Manager) {
		if d > 0 {
			m.expiry = d
		}
	}
}

// WithClock injects a time source (tests).
func WithClock(now func() time.Time) Option {
	return func(m *Manager) { m.now = now }
}

// NewManager creates the manager state for node self.
func NewManager(self ktypes.NodeID, opts ...Option) *Manager {
	m := &Manager{
		self:    self,
		members: make(map[ktypes.NodeID]*Member),
		hints:   make(map[gaddr.Addr]*hint),
		hintCap: DefaultHintCapacity,
		expiry:  DefaultExpiry,
		now:     time.Now,
	}
	m.recent.prev, m.recent.next = &m.recent, &m.recent
	for _, opt := range opts {
		opt(m)
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
	for start, h := range m.hints {
		h.nodes = removeNode(h.nodes, node)
		if len(h.nodes) == 0 {
			h.unlink()
			delete(m.hints, start)
		}
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
	h, ok := m.hints[start]
	if !ok {
		if len(m.hints) >= m.hintCap {
			// Recycle the least recently used hint for the new start.
			h = m.recent.prev
			h.unlink()
			delete(m.hints, h.start)
			h.start, h.nodes = start, h.nodes[:0]
		} else {
			h = &hint{start: start}
		}
		m.hints[start] = h
	}
	m.touchLocked(h)
	if !slices.Contains(h.nodes, node) {
		h.nodes = append(h.nodes, node)
	}
}

// Query answers "which nearby nodes cache the region containing addr?"
// from the hint cache. Hints are indexed by region start, so the caller
// passes any address and the manager scans (hint cache is small and
// bounded). Stale hints are possible and tolerated (§3.2).
func (m *Manager) Query(addr gaddr.Addr) (nodes []ktypes.NodeID, found bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Exact region-start hit first.
	if h, ok := m.hints[addr]; ok {
		m.touchLocked(h)
		alive := m.aliveOfLocked(h.nodes)
		return alive, len(alive) > 0
	}
	// Otherwise the greatest hint start below addr (the region likely
	// containing it). The hint carries no size, so this may be a false
	// positive — the requester verifies with the named node.
	var best *hint
	for start, h := range m.hints {
		if addr.Less(start) {
			continue
		}
		if best == nil || best.start.Less(start) {
			best = h
		}
	}
	if best == nil {
		return nil, false
	}
	m.touchLocked(best)
	alive := m.aliveOfLocked(best.nodes)
	return alive, len(alive) > 0
}

func (m *Manager) aliveOfLocked(ns []ktypes.NodeID) []ktypes.NodeID {
	cutoff := m.now().Add(-m.expiry)
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
	cutoff := m.now().Add(-m.expiry)
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
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.hints)
}

func removeNode(ns []ktypes.NodeID, node ktypes.NodeID) []ktypes.NodeID {
	out := ns[:0]
	for _, n := range ns {
		if n != node {
			out = append(out, n)
		}
	}
	return out
}
