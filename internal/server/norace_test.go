//go:build !race

package server

// raceEnabled reports a -race build: the race detector instruments
// allocations, so allocation pins skip under it.
const raceEnabled = false
