//go:build !race

package pagedir

const raceEnabled = false
