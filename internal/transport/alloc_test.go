package transport

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"khazana/internal/wire"
)

// TestMuxRoundTripAllocGate is the object budget of one Ping/Pong round
// trip over a loopback mux connection, client and server side together:
// the decoded request, the handler's reply and its decode at the caller —
// the messages only. It measures 3 objects, 7 while each side's writer let
// its writev buffer list escape on every flush and each side's reader did
// the same with the 4-byte frame length. The budget is 3.
//
// The measured rounds run with the collector off. A collection resets
// every sync.Pool's per-P caches and clears the scheduler's sudog cache,
// and refilling them cost 13 to 21 objects in a round that saw one.
// Between collections the runtime still allocates a sudog or a goroutine
// now and then (2 to 6 objects in a round, none per trip) while the
// parked writers' caches settle across Ps, so the gate takes the best of
// up to ten rounds: a per-trip allocation adds 2 000 objects to each.
func TestMuxRoundTripAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards entries under the race detector; the budget assumes pooled buffers")
	}
	a, err := NewTCP(1, "127.0.0.1:0", WithConnsPerPeer(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(2, b.Addr())
	b.SetHandler(echoHandler(2))
	ctx := context.Background()
	ping := &wire.Ping{From: 1}
	roundTrip := func() {
		if _, err := a.Request(ctx, 2, ping); err != nil {
			t.Fatal(err)
		}
	}
	const trips = 2000
	for i := 0; i < trips; i++ { // dial, fill the pools, grow the stacks
		roundTrip()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	objects := math.Inf(1)
	for round := 0; round < 10 && objects > 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < trips; i++ {
			roundTrip()
		}
		runtime.ReadMemStats(&after)
		objects = math.Min(objects, float64(after.Mallocs-before.Mallocs)/trips)
	}
	t.Logf("mux round trip: %.2f objects", objects)
	if objects > 3 {
		t.Fatalf("a mux round trip allocates %.2f objects, budget is 3", objects)
	}
}
