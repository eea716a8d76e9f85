package cluster

import (
	"context"
	"testing"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/wire"
)

// fakeClock is a controllable time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func start(n uint64) gaddr.Addr              { return gaddr.FromUint64(n * 0x100000) }

// newTestManager is a manager reading time from c.
func newTestManager(c *fakeClock) *Manager {
	m := NewManager(1)
	m.now = c.now
	return m
}

// newBoundedManager is a manager whose hint cache holds capacity hints.
func newBoundedManager(c *fakeClock, capacity int) *Manager {
	m := newTestManager(c)
	m.hints = region.NewIndex[*hint](capacity)
	return m
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
	addr, ok := m.MemberAddr(2)
	if !ok || addr != "127.0.0.1:9000" {
		t.Fatalf("addr = %q, %v", addr, ok)
	}
	// Rejoin updates the address.
	m.Join(2, "127.0.0.1:9001")
	addr, _ = m.MemberAddr(2)
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
	m.Heartbeat(&wire.Heartbeat{Node: 2, FreeTotal: 100, FreeMax: 50})
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
	m.AddHint(start(1), 2)
	m.Leave(2)
	if got := m.Alive(); len(got) != 1 {
		t.Fatalf("alive = %v", got)
	}
	if _, found := m.Query(start(1)); found {
		t.Fatal("hint survived leave")
	}
	// Leaving the manager itself is ignored.
	m.Leave(1)
	if got := m.Alive(); len(got) != 1 {
		t.Fatalf("alive after self-leave = %v", got)
	}
}

func TestQueryHints(t *testing.T) {
	c := newFakeClock()
	m := newTestManager(c)
	m.Join(2, "")
	m.Join(3, "")
	m.AddHint(start(5), 2)
	m.AddHint(start(5), 3)

	nodes, found := m.Query(start(5))
	if !found || len(nodes) != 2 {
		t.Fatalf("query = %v, %v", nodes, found)
	}
	// An address above a hinted start resolves to that hint (best-effort
	// containment guess).
	nodes, found = m.Query(start(5).MustAdd(0x1000))
	if !found || len(nodes) == 0 {
		t.Fatalf("inner query = %v, %v", nodes, found)
	}
	// An address below every hint misses.
	if _, found := m.Query(gaddr.FromUint64(1)); found {
		t.Fatal("low address should miss")
	}
}

func TestQueryFiltersDeadNodes(t *testing.T) {
	c := newFakeClock()
	m := newTestManager(c)
	m.Join(2, "")
	m.AddHint(start(5), 2)
	c.advance(DefaultExpiry + time.Second)
	nodes, found := m.Query(start(5))
	if found || len(nodes) != 0 {
		t.Fatalf("query with dead node = %v, %v", nodes, found)
	}
}

func TestHeartbeatCarriesRegionHints(t *testing.T) {
	c := newFakeClock()
	m := newTestManager(c)
	m.Join(2, "")
	m.Heartbeat(&wire.Heartbeat{Node: 2, Regions: []gaddr.Addr{start(7), start(9)}})
	if nodes, found := m.Query(start(7)); !found || nodes[0] != 2 {
		t.Fatalf("hint from heartbeat = %v, %v", nodes, found)
	}
	if m.HintCount() != 2 {
		t.Fatalf("hint count = %d", m.HintCount())
	}
}

func TestHintEviction(t *testing.T) {
	c := newFakeClock()
	m := newBoundedManager(c, 3)
	m.Join(2, "")
	for i := uint64(1); i <= 3; i++ {
		m.AddHint(start(i), 2)
	}
	// Touch hint 1 so hint 2 is LRU.
	m.Query(start(1))
	m.AddHint(start(4), 2)
	if m.HintCount() != 3 {
		t.Fatalf("hint count = %d", m.HintCount())
	}
	if _, hint2 := m.hints.Get(start(2)); hint2 {
		t.Fatal("LRU hint should be evicted")
	}
	if _, found := m.Query(start(4)); !found {
		t.Fatal("new hint missing")
	}
}

func TestBestFreeSpace(t *testing.T) {
	c := newFakeClock()
	m := newTestManager(c)
	m.Join(2, "")
	m.Join(3, "")
	m.Heartbeat(&wire.Heartbeat{Node: 2, FreeTotal: 100, FreeMax: 60})
	m.Heartbeat(&wire.Heartbeat{Node: 3, FreeTotal: 300, FreeMax: 40})
	node, max := m.BestFreeSpace()
	if node != 2 || max != 60 {
		t.Fatalf("best = %v, %d", node, max)
	}
}

func TestWalk(t *testing.T) {
	c := newFakeClock()
	m := newTestManager(c)
	m.Join(2, "")
	m.Join(3, "")
	m.Join(4, "")
	// Only node 3 knows the region.
	lookup := func(_ context.Context, node ktypes.NodeID, _ gaddr.Addr) bool {
		return node == 3
	}
	hits := m.Walk(context.Background(), start(8), lookup, 1)
	if len(hits) != 1 || hits[0] != 3 {
		t.Fatalf("walk = %v", hits)
	}
	// The walk result is cached as a hint.
	if nodes, found := m.Query(start(8)); !found || nodes[0] != 3 {
		t.Fatalf("walk hint = %v, %v", nodes, found)
	}
	// A walk over nodes that all miss returns nothing.
	none := m.Walk(context.Background(), start(99), func(context.Context, ktypes.NodeID, gaddr.Addr) bool { return false }, 2)
	if len(none) != 0 {
		t.Fatalf("walk none = %v", none)
	}
}

func TestWalkSkipsDeadAndSelf(t *testing.T) {
	c := newFakeClock()
	m := newTestManager(c)
	m.Join(2, "")
	m.Join(3, "")
	c.advance(DefaultExpiry + time.Second)
	m.Heartbeat(&wire.Heartbeat{Node: 3}) // only 3 alive
	var asked []ktypes.NodeID
	m.Walk(context.Background(), start(1), func(_ context.Context, n ktypes.NodeID, _ gaddr.Addr) bool {
		asked = append(asked, n)
		return false
	}, 1)
	if len(asked) != 1 || asked[0] != 3 {
		t.Fatalf("walk asked %v, want [3]", asked)
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
