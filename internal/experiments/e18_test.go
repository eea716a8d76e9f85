package experiments

import (
	"os"
	"testing"
	"time"
)

// TestE18FanIn checks the deterministic shape at a reduced client count
// so the race-enabled tier-1 suite stays quick: the daemon serves every
// in-flight client over a handful of connections. Full scale (N=4000)
// runs under the armed gate below and kbench.
func TestE18FanIn(t *testing.T) {
	runAndCheck(t, "E18", func(cfg Config) (Result, error) {
		return e18FanInN(cfg, 64)
	})
}

// TestE18FanInGate enforces the CI bench-smoke fan-in budget at full
// scale, in absolute terms: with 4000 concurrent TCP clients at one
// daemon, the daemon-side connection count stays decoupled from the
// client count (no per-client socket, hence no per-client goroutine-pair
// on the server) and no client sees an error. The full-scale run is
// heavy, so the gate only arms when the bench-smoke leg sets
// KHAZANA_E18_GATE=1.
func TestE18FanInGate(t *testing.T) {
	if os.Getenv("KHAZANA_E18_GATE") != "1" {
		t.Skip("set KHAZANA_E18_GATE=1 to arm the fan-in gate (CI bench-smoke leg)")
	}
	cfg := Config{Duration: 2 * time.Second, Dir: t.TempDir()}
	run, err := e18Measure(cfg, e18Clients)
	if err != nil {
		t.Fatalf("client-visible error at %d clients: %v", e18Clients, err)
	}
	t.Logf("%d clients: %.0f cycles/s over %d peak daemon conns", e18Clients, run.ops, run.peakConns)
	if run.ops == 0 {
		t.Fatal("no cycle completed")
	}
	if run.peakConns > e18MuxConnCap {
		t.Fatalf("daemon held %d connections (budget %d): connection count must not scale with clients",
			run.peakConns, e18MuxConnCap)
	}
}
