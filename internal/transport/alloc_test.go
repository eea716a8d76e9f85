package transport

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"khazana/internal/frame"
	"khazana/internal/ktypes"
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
// now and then (0 to 7 objects in a round, none per trip) while the
// caches of the parked callers and handler workers settle across Ps, so
// the gate takes the best of up to ten rounds: a per-trip allocation adds
// 2 000 objects to each.
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

// TestMuxOneWayAllocGate is the object budget of one one-way send (a
// clean ReleaseBatch) over a loopback mux connection, client and server
// side together. The sender marshals into a pooled buffer and writes it
// itself, or waits on a pooled channel while another sender's write
// carries it, so the only objects are the server's
// decoded message and its item slice: 2 objects. It runs like
// TestMuxRoundTripAllocGate, and waits for every handler before it reads
// the counts. Sends outrun the server's resident workers, and the
// overflow goroutines and sudogs that costs leave 0 to 108 stray objects
// in a round, so the gate allows 200 (0.1 per send): a per-send
// allocation adds 2 000.
func TestMuxOneWayAllocGate(t *testing.T) {
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
	var handled atomic.Int64
	b.SetHandler(func(context.Context, ktypes.NodeID, wire.Msg) (wire.Msg, error) {
		handled.Add(1)
		return nil, nil
	})
	ctx := context.Background()
	rel := cleanRelease(1)
	var sent int64
	send := func() {
		if _, err := a.Request(ctx, 2, rel); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	settle := func() {
		for handled.Load() < sent {
			runtime.Gosched()
		}
	}
	const sends = 2000
	for i := 0; i < sends; i++ { // dial, fill the pools, grow the stacks
		send()
	}
	settle()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	objects := math.Inf(1)
	for round := 0; round < 10 && objects > 2.1; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < sends; i++ {
			send()
		}
		settle()
		runtime.ReadMemStats(&after)
		objects = math.Min(objects, float64(after.Mallocs-before.Mallocs)/sends)
	}
	t.Logf("mux one-way send: %.3f objects", objects)
	if objects > 2.1 {
		t.Fatalf("a mux one-way send allocates %.3f objects, budget is 2.1", objects)
	}
}

// TestInprocParcelAllocGate is the object budget of one inproc round trip
// whose request and response both carry 16 pages: an UpdateBatch the
// handler echoes. The parcel (the request's, reused for the response),
// its frame list and the buffers come from pools and every page crosses
// by reference, so the objects are the two decoded messages and their
// item slices: 4. A parcel or frame list allocated per trip adds 1 or more.
func TestInprocParcelAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards entries under the race detector; the budget assumes pooled parcels")
	}
	net := NewNetwork()
	a, _ := net.Attach(1)
	b, _ := net.Attach(2)
	b.SetHandler(echoHandler(2))
	ub := &wire.UpdateBatch{From: 1, Items: make([]wire.UpdateItem, 16)}
	for i := range ub.Items {
		f := frame.AllocZero(4096)
		ub.Items[i].SetFrame(f)
		f.Release()
	}
	defer ub.ReleaseFrames()
	ctx := context.Background()
	roundTrip := func() {
		resp, err := a.Request(ctx, 2, ub)
		if err != nil {
			t.Fatal(err)
		}
		wire.Recycle(resp)
	}
	for range 100 {
		roundTrip()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	objects := testing.AllocsPerRun(1000, roundTrip)
	t.Logf("inproc 16-page round trip: %.2f objects", objects)
	if objects > 4 {
		t.Fatalf("an inproc 16-page round trip allocates %.2f objects, budget is 4 (the two messages and their item slices)", objects)
	}
}
