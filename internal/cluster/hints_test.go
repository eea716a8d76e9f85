package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/wire"
)

// hintModel is the reference hint cache: a map of hinted nodes plus an
// explicit recency list, least recently used first.
type hintModel struct {
	cap    int
	nodes  map[gaddr.Addr][]ktypes.NodeID
	recent []gaddr.Addr
}

func (r *hintModel) touch(start gaddr.Addr) {
	r.recent = slices.DeleteFunc(r.recent, func(a gaddr.Addr) bool { return a == start })
	r.recent = append(r.recent, start)
}

func (r *hintModel) add(start gaddr.Addr, node ktypes.NodeID) {
	if _, ok := r.nodes[start]; !ok && len(r.nodes) >= r.cap {
		victim := r.recent[0]
		r.recent = r.recent[1:]
		delete(r.nodes, victim)
	}
	if !slices.Contains(r.nodes[start], node) {
		r.nodes[start] = append(r.nodes[start], node)
	}
	r.touch(start)
}

// query mirrors Manager.Query's choice of hint: the exact start, else the
// greatest start below addr.
func (r *hintModel) query(addr gaddr.Addr) {
	best, have := gaddr.Addr{}, false
	for start := range r.nodes {
		if !addr.Less(start) && (!have || best.Less(start)) {
			best, have = start, true
		}
	}
	if have {
		r.touch(best)
	}
}

func (r *hintModel) leave(node ktypes.NodeID) {
	for start, ns := range r.nodes {
		ns = slices.DeleteFunc(ns, func(n ktypes.NodeID) bool { return n == node })
		if len(ns) == 0 {
			delete(r.nodes, start)
			r.recent = slices.DeleteFunc(r.recent, func(a gaddr.Addr) bool { return a == start })
		} else {
			r.nodes[start] = ns
		}
	}
}

// checkHints verifies the manager against the model: the same hints with
// the same nodes. The model evicts by its own recency list, so a wrong
// victim shows up as a content mismatch.
func checkHints(t *testing.T, step int, m *Manager, ref *hintModel) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	if got := m.hints.Len(); got != len(ref.nodes) {
		t.Fatalf("step %d: %d hints, model has %d", step, got, len(ref.nodes))
	}
	m.hints.Range(func(start gaddr.Addr, h *hint) {
		if want, ok := ref.nodes[start]; !ok || !slices.Equal(h.nodes, want) {
			t.Errorf("step %d: hint %v = %v, want nodes %v (held %v)", step, start, h.nodes, want, ok)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
}

// TestHintCacheModel drives the hint cache with random AddHint, Query,
// Heartbeat and Leave calls at small capacities and checks it against
// the reference after every step: the same contents and the same victims.
// A hint a Leave empties is gone, so it is never evicted again. The
// index's own recency links are checked by region's TestIndexModel.
func TestHintCacheModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 3 + rng.Intn(6)
		c := newFakeClock()
		m := newBoundedManager(c, capacity)
		ref := &hintModel{cap: capacity, nodes: make(map[gaddr.Addr][]ktypes.NodeID)}
		for _, id := range []ktypes.NodeID{2, 3, 4} {
			m.Join(id, "")
		}
		for step := 0; step < 3000; step++ {
			node := ktypes.NodeID(2 + rng.Intn(3))
			switch op := rng.Intn(10); {
			case op < 5:
				s := start(uint64(1 + rng.Intn(3*capacity)))
				m.AddHint(s, node)
				ref.add(s, node)
			case op < 8:
				// Exact starts, addresses inside a hinted region, and
				// addresses below every hint.
				addr := start(uint64(rng.Intn(3*capacity + 1))).MustAdd(uint64(rng.Intn(2)) * 0x800)
				m.Query(addr)
				ref.query(addr)
			case op < 9:
				regions := []gaddr.Addr{start(uint64(1 + rng.Intn(3*capacity))), start(uint64(1 + rng.Intn(3*capacity)))}
				m.Heartbeat(&wire.Heartbeat{Node: node, Regions: regions})
				for _, s := range regions {
					ref.add(s, node)
				}
			default:
				m.Leave(node)
				ref.leave(node)
				m.Join(node, "")
			}
			checkHints(t, step, m, ref)
		}
	}
}

// TestHintCacheAllocGate: recording a use and evicting are pointer swaps
// on a recycled hint, so a full cache takes both a new region's hint and
// a known region's without allocating.
func TestHintCacheAllocGate(t *testing.T) {
	m := NewManager(1)
	m.Join(2, "")
	next := uint64(1)
	for ; next <= DefaultHintCapacity; next++ {
		m.AddHint(start(next), 2)
	}
	// Let the map settle into its steady-state churn.
	for i := 0; i < 4*DefaultHintCapacity; i++ {
		m.AddHint(start(next), 2)
		next++
	}
	fresh := testing.AllocsPerRun(2000, func() {
		m.AddHint(start(next), 2)
		next++
	})
	known := testing.AllocsPerRun(2000, func() { m.AddHint(start(next-1), 2) })
	if got := m.HintCount(); got != DefaultHintCapacity {
		t.Fatalf("%d hints cached, want %d", got, DefaultHintCapacity)
	}
	if fresh != 0 || known != 0 {
		t.Fatalf("AddHint on a full cache allocates %.2f objects for a new start and %.2f for a known one, want 0 and 0", fresh, known)
	}
}
