package cluster

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"khazana/internal/ktypes"
	"khazana/internal/wire"
)

// memberModel is the reference membership table: when each member was
// last seen.
type memberModel struct {
	seen map[ktypes.NodeID]time.Time
}

// alive mirrors Manager.Alive: the manager (node 1) and every member seen
// within the expiry window, sorted.
func (r *memberModel) alive(now time.Time) []ktypes.NodeID {
	out := []ktypes.NodeID{}
	for id, at := range r.seen {
		if id == 1 || at.After(now.Add(-DefaultExpiry)) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// view mirrors Manager.View: every member, sorted.
func (r *memberModel) view() []ktypes.NodeID {
	out := []ktypes.NodeID{}
	for id := range r.seen {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// TestHintCacheModel drives the manager's membership table — the state it
// keeps now that the ring replaced its region-location hints — with random
// Join, Heartbeat and Leave calls and clock advances, and checks Alive and
// View against the reference after every step.
func TestHintCacheModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newFakeClock()
		m := newTestManager(c)
		ref := &memberModel{seen: map[ktypes.NodeID]time.Time{1: c.now()}}
		for step := 0; step < 3000; step++ {
			node := ktypes.NodeID(1 + rng.Intn(8))
			switch op := rng.Intn(10); {
			case op < 3:
				m.Join(node, "")
				ref.seen[node] = c.now()
			case op < 6:
				m.Heartbeat(&wire.Heartbeat{Node: node})
				ref.seen[node] = c.now()
			case op < 7:
				m.Leave(node)
				if node != 1 {
					delete(ref.seen, node)
				}
			default:
				c.advance(time.Duration(rng.Intn(2000)) * time.Millisecond)
			}
			if got, want := m.Alive(), ref.alive(c.now()); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: alive = %v, want %v", seed, step, got, want)
			}
			if got, want := m.View().Members, ref.view(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: view = %v, want %v", seed, step, got, want)
			}
		}
	}
}
