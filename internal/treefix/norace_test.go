//go:build !race

package treefix

// raceEnabled reports a -race build: the race detector instruments
// allocations and drops sync.Pool entries at random, so allocation pins
// skip under it.
const raceEnabled = false
