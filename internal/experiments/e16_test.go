package experiments

import (
	"os"
	"testing"
	"time"
)

func TestE16WriteThrough(t *testing.T) { runAndCheck(t, "E16", E16WriteThrough) }

// TestE16WriteThroughGate enforces the write-through bar in CI: every
// multi-page release must write through with exactly one RPC per replica,
// and those must be its only RPCs. The count is deterministic, but the run is heavier than a unit
// test, so the gate only arms when the bench-smoke leg sets
// KHAZANA_E16_GATE=1; the plain test suite checks the same shape via
// TestE16WriteThrough.
func TestE16WriteThroughGate(t *testing.T) {
	if os.Getenv("KHAZANA_E16_GATE") != "1" {
		t.Skip("set KHAZANA_E16_GATE=1 to arm the RPC-count gate (CI bench-smoke leg)")
	}
	cfg := Config{Latency: 100 * time.Microsecond, Dir: t.TempDir()}
	batched, err := e16WriteThrough(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(e16WriteCycles * e16Secondaries)
	t.Logf("write-through: %d update RPCs, %d RPCs in all, for %d releases to %d replicas",
		batched.updateRPCs, batched.requests, e16WriteCycles, e16Secondaries)
	if batched.updateRPCs != want || batched.requests != want {
		t.Fatalf("batched write-through sent %d update RPCs and %d in all, want exactly %d of each (one per replica per release)",
			batched.updateRPCs, batched.requests, want)
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
