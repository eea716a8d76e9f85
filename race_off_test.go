//go:build !race

package khazana_test

const raceEnabled = false
