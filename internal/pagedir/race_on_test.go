//go:build race

package pagedir

// raceEnabled reports that the race detector is on, whose instrumentation
// allocates beside the code an allocation gate measures.
const raceEnabled = true
