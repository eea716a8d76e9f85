//go:build race

package transport

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a share of what it is given, so allocation budgets that rest on pooling
// do not hold.
const raceEnabled = true
