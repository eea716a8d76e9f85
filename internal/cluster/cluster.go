// Package cluster implements Khazana's cluster membership (paper §3.1):
// nodes organize into groups of closely-connected nodes called clusters,
// each with a designated cluster manager that admits joining nodes, tracks
// their liveness through heartbeats and hands every node the membership
// view.
//
// The paper's manager also caches location hints for the regions its
// cluster holds, on the lookup path between the region directory and the
// address map tree walk (§3.2). Here the consistent-hashing ring, built by
// every node from this package's view, takes that place: the manager keeps
// membership only.
package cluster

import (
	"sort"
	"sync"
	"time"

	"khazana/internal/ktypes"
	"khazana/internal/wire"
)

// DefaultExpiry is how long a member may go silent before being presumed
// dead.
const DefaultExpiry = 5 * time.Second

// Member is the manager's view of one cluster node.
type Member struct {
	ID       ktypes.NodeID
	Addr     string
	LastSeen time.Time
}

// Manager holds cluster-manager state. It is driven by the daemon's
// message handler.
type Manager struct {
	mu      sync.Mutex
	self    ktypes.NodeID
	members map[ktypes.NodeID]*Member
	now     func() time.Time
}

// NewManager creates the manager state for node self.
func NewManager(self ktypes.NodeID) *Manager {
	m := &Manager{
		self:    self,
		members: make(map[ktypes.NodeID]*Member),
		now:     time.Now,
	}
	// The manager is always a member of its own cluster.
	m.members[self] = &Member{ID: self, LastSeen: m.now()}
	return m
}

// Join admits a node and returns the current view.
func (m *Manager) Join(node ktypes.NodeID, addr string) *wire.ClusterView {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem := m.memberLocked(node)
	mem.Addr = addr
	return m.viewLocked()
}

// Leave removes a node (§3.1: machines can dynamically enter and leave).
func (m *Manager) Leave(node ktypes.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if node != m.self {
		delete(m.members, node)
	}
}

// Heartbeat refreshes the reporting node's liveness, admitting it if the
// manager does not know it yet.
func (m *Manager) Heartbeat(hb *wire.Heartbeat) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.memberLocked(hb.Node)
}

// memberLocked returns node's record, creating it, stamped as seen now.
func (m *Manager) memberLocked(node ktypes.NodeID) *Member {
	mem, ok := m.members[node]
	if !ok {
		mem = &Member{ID: node}
		m.members[node] = mem
	}
	mem.LastSeen = m.now()
	return mem
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
