package cluster

import (
	"slices"
	"testing"
	"time"

	"khazana/internal/ktypes"
	"khazana/internal/wire"
)

// fakeClock is a controllable time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }

// newTestManager is a manager reading time from c.
func newTestManager(c *fakeClock) *Manager {
	m := NewManager(1)
	m.now = c.now
	return m
}

// memberAddr returns a member's recorded transport address.
func memberAddr(m *Manager, id ktypes.NodeID) (string, bool) {
	for _, mem := range m.Members() {
		if mem.ID == id {
			return mem.Addr, true
		}
	}
	return "", false
}

func TestJoinAndView(t *testing.T) {
	c := newFakeClock()
	m := newTestManager(c)
	view := m.Join(2, "127.0.0.1:9000")
	if view.Manager != 1 {
		t.Fatalf("manager = %v", view.Manager)
	}
	if len(view.Members) != 2 || view.Members[0] != 1 || view.Members[1] != 2 {
		t.Fatalf("members = %v", view.Members)
	}
	addr, ok := memberAddr(m, 2)
	if !ok || addr != "127.0.0.1:9000" {
		t.Fatalf("addr = %q, %v", addr, ok)
	}
	// Rejoin updates the address.
	m.Join(2, "127.0.0.1:9001")
	addr, _ = memberAddr(m, 2)
	if addr != "127.0.0.1:9001" {
		t.Fatalf("addr after rejoin = %q", addr)
	}
}

func TestHeartbeatLiveness(t *testing.T) {
	c := newFakeClock()
	m := newTestManager(c)
	m.Join(2, "")
	m.Join(3, "")
	if got := m.Alive(); len(got) != 3 {
		t.Fatalf("alive = %v", got)
	}
	// Node 3 goes silent past expiry; node 2 heartbeats.
	c.advance(DefaultExpiry - time.Second)
	m.Heartbeat(&wire.Heartbeat{Node: 2})
	c.advance(2 * time.Second)
	alive := m.Alive()
	if len(alive) != 2 || alive[0] != 1 || alive[1] != 2 {
		t.Fatalf("alive = %v, want [1 2]", alive)
	}
	// The manager itself never expires.
	c.advance(time.Hour)
	if got := m.Alive(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("alive = %v, want [1]", got)
	}
}

func TestLeave(t *testing.T) {
	c := newFakeClock()
	m := newTestManager(c)
	m.Join(2, "")
	m.Leave(2)
	if got := m.Alive(); len(got) != 1 {
		t.Fatalf("alive = %v", got)
	}
	if got := m.View().Members; !slices.Equal(got, []ktypes.NodeID{1}) {
		t.Fatalf("view after leave = %v, want [1]", got)
	}
	// Leaving the manager itself is ignored.
	m.Leave(1)
	if got := m.Alive(); len(got) != 1 {
		t.Fatalf("alive after self-leave = %v", got)
	}
}

// TestQueryHints: the manager answers one query, the membership view —
// every node builds its ring from it, so the view is sorted and the same
// whatever order the members arrived in.
func TestQueryHints(t *testing.T) {
	c := newFakeClock()
	a, b := newTestManager(c), newTestManager(c)
	for _, id := range []ktypes.NodeID{5, 2, 3} {
		a.Join(id, "")
	}
	for _, id := range []ktypes.NodeID{3, 5, 2} {
		b.Join(id, "")
	}
	want := []ktypes.NodeID{1, 2, 3, 5}
	va, vb := a.View(), b.View()
	if !slices.Equal(va.Members, want) || !slices.Equal(vb.Members, want) {
		t.Fatalf("views = %v and %v, want %v", va.Members, vb.Members, want)
	}
	if va.Manager != 1 {
		t.Fatalf("view names manager %v", va.Manager)
	}
}

// TestQueryFiltersDeadNodes: Alive drops a member silent past the expiry
// window; the view keeps it until it leaves, and a heartbeat brings it
// back to life.
func TestQueryFiltersDeadNodes(t *testing.T) {
	c := newFakeClock()
	m := newTestManager(c)
	m.Join(2, "")
	c.advance(DefaultExpiry + time.Second)
	if got := m.Alive(); !slices.Equal(got, []ktypes.NodeID{1}) {
		t.Fatalf("alive with a silent member = %v, want [1]", got)
	}
	if got := m.View().Members; !slices.Equal(got, []ktypes.NodeID{1, 2}) {
		t.Fatalf("view with a silent member = %v, want [1 2]", got)
	}
	m.Heartbeat(&wire.Heartbeat{Node: 2})
	if got := m.Alive(); !slices.Equal(got, []ktypes.NodeID{1, 2}) {
		t.Fatalf("alive after a heartbeat = %v, want [1 2]", got)
	}
}

// TestHeartbeatCarriesRegionHints: a heartbeat carries its sender only.
// One from a node the manager does not know admits it, and one from a
// known node keeps the address its join recorded.
func TestHeartbeatCarriesRegionHints(t *testing.T) {
	c := newFakeClock()
	m := newTestManager(c)
	m.Join(2, "10.0.0.2:7000")
	m.Heartbeat(&wire.Heartbeat{Node: 3})
	if got := m.View().Members; !slices.Equal(got, []ktypes.NodeID{1, 2, 3}) {
		t.Fatalf("view after an unknown node's heartbeat = %v", got)
	}
	m.Heartbeat(&wire.Heartbeat{Node: 2})
	if addr, _ := memberAddr(m, 2); addr != "10.0.0.2:7000" {
		t.Fatalf("heartbeat changed node 2's address to %q", addr)
	}
}

// TestHintEviction: membership has no capacity, so the manager never
// evicts a member; only Leave and the expiry window remove one from the
// views.
func TestHintEviction(t *testing.T) {
	c := newFakeClock()
	m := newTestManager(c)
	const n = 200
	for id := ktypes.NodeID(2); id <= n; id++ {
		m.Join(id, "")
	}
	if got := len(m.Alive()); got != n {
		t.Fatalf("%d members alive, want %d", got, n)
	}
	m.Leave(7)
	if got := m.View().Members; len(got) != n-1 || slices.Contains(got, 7) {
		t.Fatalf("view after node 7 left has %d members (node 7 present: %v)", len(got), slices.Contains(got, 7))
	}
}

// TestBestFreeSpace: the manager keeps no free-space hints (reservations
// carve from the node's own chunk of the address map), so a member's
// record is its ID, address and liveness only, and a heartbeat refreshes
// the liveness alone.
func TestBestFreeSpace(t *testing.T) {
	c := newFakeClock()
	m := newTestManager(c)
	m.Join(2, "b")
	c.advance(time.Second)
	m.Heartbeat(&wire.Heartbeat{Node: 2})
	got := m.Members()
	if want := (Member{ID: 2, Addr: "b", LastSeen: c.now()}); len(got) != 2 || got[1] != want {
		t.Fatalf("members = %+v, want node 2 as %+v", got, want)
	}
}

// TestWalk: a rejoin after Leave restores the member, in the view the
// ring is built from, at the same sorted place.
func TestWalk(t *testing.T) {
	c := newFakeClock()
	m := newTestManager(c)
	m.Join(2, "")
	m.Join(3, "")
	m.Join(4, "")
	m.Leave(3)
	if got := m.View().Members; !slices.Equal(got, []ktypes.NodeID{1, 2, 4}) {
		t.Fatalf("view after leave = %v", got)
	}
	m.Join(3, "")
	if got := m.View().Members; !slices.Equal(got, []ktypes.NodeID{1, 2, 3, 4}) {
		t.Fatalf("view after rejoin = %v", got)
	}
}

// TestWalkSkipsDeadAndSelf: Alive always lists the manager, never
// expired, and skips members gone silent.
func TestWalkSkipsDeadAndSelf(t *testing.T) {
	c := newFakeClock()
	m := newTestManager(c)
	m.Join(2, "")
	m.Join(3, "")
	c.advance(DefaultExpiry + time.Second)
	m.Heartbeat(&wire.Heartbeat{Node: 3}) // only 3 alive
	if got := m.Alive(); !slices.Equal(got, []ktypes.NodeID{1, 3}) {
		t.Fatalf("alive = %v, want [1 3]", got)
	}
}

func TestMembersSnapshot(t *testing.T) {
	c := newFakeClock()
	m := newTestManager(c)
	m.Join(3, "c")
	m.Join(2, "b")
	ms := m.Members()
	if len(ms) != 3 || ms[0].ID != 1 || ms[1].ID != 2 || ms[2].ID != 3 {
		t.Fatalf("members = %+v", ms)
	}
}
