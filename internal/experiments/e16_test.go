package experiments

import (
	"os"
	"testing"
	"time"
)

func TestE16PrefetchAndWriteThrough(t *testing.T) { runAndCheck(t, "E16", E16PrefetchAndWriteThrough) }

// TestE16WriteThroughGate enforces the ISSUE acceptance bar in CI: a
// sequential read-mostly sweep must need at least 2x fewer grant RPCs
// with read-ahead on, and every multi-page release must write through
// with exactly one update RPC per replica. The counts are deterministic
// (RPC counts, not timings), but the full four-cluster run is heavy, so
// the gate only arms when the bench-smoke leg sets KHAZANA_E16_GATE=1;
// the plain test suite checks the same shape via
// TestE16PrefetchAndWriteThrough.
func TestE16WriteThroughGate(t *testing.T) {
	if os.Getenv("KHAZANA_E16_GATE") != "1" {
		t.Skip("set KHAZANA_E16_GATE=1 to arm the RPC-count gate (CI bench-smoke leg)")
	}
	cfg := Config{Latency: 100 * time.Microsecond, Dir: t.TempDir()}
	on, err := e16ReadSweep(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	off, err := e16ReadSweep(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(off.requests) / float64(on.requests)
	t.Logf("sequential sweep: %d RPCs with read-ahead vs %d without (%.1fx, %d spec hits)",
		on.requests, off.requests, ratio, on.hits)
	if ratio < 2 {
		t.Fatalf("grant-RPC reduction %.1fx is below the 2x gate", ratio)
	}
	if on.hits == 0 {
		t.Fatal("no speculative grants were consumed during the sequential sweep")
	}

	batched, err := e16WriteThrough(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(e16WriteCycles * e16Secondaries)
	t.Logf("write-through: %d update RPCs for %d releases to %d replicas",
		batched.updateRPCs, e16WriteCycles, e16Secondaries)
	if batched.updateRPCs != want {
		t.Fatalf("batched write-through sent %d update RPCs, want exactly %d (one per replica per release)",
			batched.updateRPCs, want)
	}
}

// BenchmarkE16Prefetch reports the sequential sweep with read-ahead on
// and off as sub-benchmarks so `go test -bench E16Prefetch` prints both
// RPC counts side by side.
func BenchmarkE16Prefetch(b *testing.B) {
	for _, side := range []struct {
		name        string
		noReadAhead bool
	}{
		{"readahead", false},
		{"baseline", true},
	} {
		b.Run(side.name, func(b *testing.B) {
			cfg := Config{Latency: 100 * time.Microsecond, Dir: b.TempDir()}
			var run e16Sweep
			for i := 0; i < b.N; i++ {
				var err error
				run, err = e16ReadSweep(cfg, side.noReadAhead)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(run.requests), "rpcs/sweep")
			b.ReportMetric(float64(run.hits), "spec-hits/sweep")
		})
	}
}

// BenchmarkE16WriteThroughBatch reports the replicated release's total
// and update RPC counts.
func BenchmarkE16WriteThroughBatch(b *testing.B) {
	cfg := Config{Latency: 100 * time.Microsecond, Dir: b.TempDir()}
	var run e16Write
	for i := 0; i < b.N; i++ {
		var err error
		run, err = e16WriteThrough(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(run.requests), "rpcs/run")
	b.ReportMetric(float64(run.updateRPCs), "update-rpcs/run")
}
