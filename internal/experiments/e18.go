package experiments

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"khazana"
	"khazana/internal/telemetry"
	"khazana/internal/transport"
)

// E18FanIn measures one daemon under massive client fan-in over real TCP
// — the workload the multiplexed transport and sharded node state exist
// for. N client goroutines, each owning a private one-page region homed
// at the daemon, hammer lock/write/unlock cycles through one shared
// client-side transport: connsPerPeer shared connections carry all
// in-flight requests against the sharded lock-context/retry state.
//
// Connection counts are sampled at the daemon's transport.conns_open
// gauge: the daemon must hold a handful of sockets no matter how many
// clients are in flight.
func E18FanIn(cfg Config) (Result, error) {
	return e18FanInN(cfg, e18Clients)
}

const (
	// e18Clients is the full-scale fan-in used by kbench and the CI gate;
	// the plain test suite runs a reduced count via e18FanInN.
	e18Clients  = 4000
	e18PageSize = 4096
	// e18MuxConnCap bounds the daemon-side connections the daemon may
	// hold: connsPerPeer shared sockets plus slack for a re-dial.
	e18MuxConnCap = 4
)

func e18FanInN(cfg Config, clients int) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:    "E18",
		Title: fmt.Sprintf("%d-client TCP fan-in over the multiplexed transport", clients),
		Predicted: "the mux transport serves every in-flight client over a fixed handful of " +
			"daemon-side connections, with no client-visible error",
	}
	run, err := e18Measure(cfg, clients)
	if err != nil {
		return res, err
	}
	res.Rows = []Row{
		{Name: "throughput", Value: fmt.Sprintf("%.0f cycles/s", run.ops),
			Detail: fmt.Sprintf("%d clients, lock/write/unlock per cycle", clients)},
		{Name: "daemon conns", Value: fmt.Sprintf("%d peak", run.peakConns),
			Detail: fmt.Sprintf("shared mux sockets decouple connections from the %d in-flight clients (budget %d)", clients, e18MuxConnCap)},
	}
	res.Pass = run.ops > 0 && run.peakConns <= e18MuxConnCap
	return res, nil
}

// e18Run is one measurement.
type e18Run struct {
	// ops counts completed lock/write/unlock cycles per second summed
	// over all clients.
	ops float64
	// peakConns is the maximum of the daemon's transport.conns_open
	// gauge sampled across the window.
	peakConns int64
}

// e18Measure boots a fresh daemon on a real TCP listener, carves one
// private region per client, and drives `clients` concurrent goroutines
// through one shared client-side transport for the measurement window.
// Any client-visible error fails the run.
func e18Measure(cfg Config, clients int) (e18Run, error) {
	var out e18Run
	dir, err := os.MkdirTemp(cfg.Dir, "e18-*")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	daemon, err := khazana.StartNode(ctx, khazana.NodeConfig{
		ID:         1,
		ListenAddr: "127.0.0.1:0",
		StoreDir:   dir,
		Genesis:    true,
		MemPages:   2*clients + 64,
	})
	if err != nil {
		return out, err
	}
	defer func() { _ = daemon.Close() }()

	tr, err := transport.NewTCP(khazana.ClientID(1), "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	defer func() { _ = tr.Close() }()
	tr.AddPeer(1, daemon.Addr())

	// Setup rides the same transport: one region per client.
	setup := khazana.NewClient(tr, 1, "bench")
	starts := make([]khazana.Addr, clients)
	for i := range starts {
		start, err := setup.Reserve(ctx, e18PageSize, khazana.Attrs{})
		if err != nil {
			return out, err
		}
		if err := setup.Allocate(ctx, start); err != nil {
			return out, err
		}
		starts[i] = start
	}

	var ops atomic.Int64
	var firstErr atomic.Value
	fail := func(err error) { firstErr.CompareAndSwap(nil, err) }
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return firstErr.Load() != nil
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(start khazana.Addr) {
			defer wg.Done()
			cli := khazana.NewClient(tr, 1, "bench")
			data := make([]byte, 64)
			for !stopped() {
				lk, err := cli.Lock(ctx, khazana.Range{Start: start, Size: uint64(len(data))}, khazana.LockWrite)
				if err != nil {
					fail(err)
					return
				}
				if err := lk.Write(ctx, start, data); err != nil {
					fail(err)
					_ = lk.Unlock(ctx) //khazana:ignore-err best-effort release on the already-failed path
					return
				}
				if err := lk.Unlock(ctx); err != nil {
					fail(err)
					return
				}
				ops.Add(1)
			}
		}(starts[i])
	}

	// Sample the daemon's open-connection gauge through the window; the
	// peak is the daemon's socket footprint under full fan-in.
	var peak atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				for _, g := range daemon.Core().MetricsSnapshot().Gauges {
					if g.Name == telemetry.MetricTransportConnsOpen && g.Value > peak.Load() {
						peak.Store(g.Value)
					}
				}
			case <-stop:
				return
			}
		}
	}()

	t0 := time.Now()
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return out, err
	}
	out.ops = float64(ops.Load()) / elapsed
	out.peakConns = peak.Load()
	return out, nil
}
