//go:build race

package core

// raceEnabled reports whether the race detector instruments this test
// binary; the H2LL distribution gate consults it.
const raceEnabled = true
