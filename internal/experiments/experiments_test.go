package experiments

import (
	"testing"
	"time"
)

// fastCfg keeps experiment runtime short in tests.
func fastCfg(t *testing.T) Config {
	t.Helper()
	return Config{
		Latency:  100 * time.Microsecond,
		Duration: 60 * time.Millisecond,
		Dir:      t.TempDir(),
	}
}

func runAndCheck(t *testing.T, name string, run func(Config) (Result, error)) {
	t.Helper()
	res, err := run(fastCfg(t))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("%s produced no rows", name)
	}
	if !res.Pass {
		for _, r := range res.Rows {
			t.Logf("%-32s %-24s %s", r.Name, r.Value, r.Detail)
		}
		t.Fatalf("%s: predicted shape did not hold: %s", name, res.Predicted)
	}
}

func TestE1Figure1(t *testing.T)     { runAndCheck(t, "E1", E1Figure1) }
func TestE2Figure2(t *testing.T)     { runAndCheck(t, "E2", E2Figure2) }
func TestE3LookupPath(t *testing.T)  { runAndCheck(t, "E3", E3LookupPath) }
func TestE4Scalability(t *testing.T) { runAndCheck(t, "E4", E4Scalability) }
func TestE5Consistency(t *testing.T) { runAndCheck(t, "E5", E5Consistency) }
func TestE6Replication(t *testing.T) { runAndCheck(t, "E6", E6Replication) }
func TestE7Filesystem(t *testing.T)  { runAndCheck(t, "E7", E7Filesystem) }
func TestE8Objects(t *testing.T)     { runAndCheck(t, "E8", E8Objects) }
func TestE9Failure(t *testing.T)     { runAndCheck(t, "E9", E9Failure) }
func TestE10PageSize(t *testing.T)   { runAndCheck(t, "E10", E10PageSize) }
func TestE11StaleMap(t *testing.T)   { runAndCheck(t, "E11", E11StaleMap) }
func TestE12Migration(t *testing.T)  { runAndCheck(t, "E12", E12Migration) }
