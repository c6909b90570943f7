// Package heuristics is a hotpath fixture: it reproduces a real hot
// package's import path so the analyzer's package gate applies.
package heuristics

import "gridsched/internal/etc"

// SumLoop reads per element inside loop bodies: flagged.
func SumLoop(in *etc.Instance) float64 {
	s := 0.0
	for t := 0; t < in.T; t++ {
		s += in.ETC(t, 0) // want `per-element ETC call in a hot-package loop`
	}
	for m := range in.TaskCosts(0) {
		s += in.ETC(0, m) // want `per-element ETC call in a hot-package loop`
	}
	return s
}

// SumClosure reads per element inside a function literal: flagged
// (hot-package closures run per event even without a lexical loop).
func SumClosure(in *etc.Instance) func(int) float64 {
	return func(t int) float64 { return in.ETC(t, 0) } // want `function literal`
}

// SumSlices reads through the slice accessors: clean.
func SumSlices(in *etc.Instance) float64 {
	s := 0.0
	for t := 0; t < in.T; t++ {
		row := in.TaskCosts(t)
		for m := range row {
			s += row[m]
		}
	}
	return s
}

// Single is a one-off read outside any loop or closure: clean.
func Single(in *etc.Instance) float64 { return in.ETC(0, 0) }

// Justified carries the escape hatch with a reason: suppressed.
func Justified(in *etc.Instance) float64 {
	s := 0.0
	for t := 0; t < in.T; t++ {
		//lint:ignore hotpath fixture: cold validation path, measured irrelevant
		s += in.ETC(t, 0)
	}
	return s
}

// Unjustified carries an empty escape hatch: both the violation and
// the reasonless directive are reported.
func Unjustified(in *etc.Instance) float64 {
	s := 0.0
	for t := 0; t < in.T; t++ {
		s += in.ETC(t, 0) /*lint:ignore hotpath*/ // want `per-element ETC call` `needs a non-empty justification`
	}
	return s
}
