//go:build race

package operators

// raceEnabled reports whether the race detector instruments this test
// binary; allocation pins consult it.
const raceEnabled = true
