//go:build race

package khazana_test

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a share of what it is given, so byte budgets that rest on pooling do not
// hold.
const raceEnabled = true
