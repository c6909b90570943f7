// Package operators is a hotpath fixture under the import path of the
// package that holds H2LL, the local search that dominates PA-CGA's
// CPU time.
package operators

import "gridsched/internal/etc"

// BestMachine scores a task's machines per element inside a loop:
// flagged.
func BestMachine(in *etc.Instance, t int) int {
	best := 0
	for m := 1; m < in.M; m++ {
		if in.ETC(t, m) < in.ETC(t, best) { // want `per-element ETC call in a hot-package loop` `per-element ETC call in a hot-package loop`
			best = m
		}
	}
	return best
}

// BestMachineRow scores the same machines through the task's cost
// row: clean.
func BestMachineRow(in *etc.Instance, t int) int {
	row := in.TaskCosts(t)
	best := 0
	for m := 1; m < len(row); m++ {
		if row[m] < row[best] {
			best = m
		}
	}
	return best
}
