// Package etc stubs the real instance type for lint fixtures: the
// analyzers type-match against this import path and method set.
package etc

// Instance mirrors the accessor surface of the real
// gridsched/internal/etc.Instance.
type Instance struct {
	T, M int
	Row  []float64
}

func (in *Instance) ETC(t, m int) float64      { return in.Row[t*in.M+m] }
func (in *Instance) TaskCosts(t int) []float64 { return in.Row[t*in.M : (t+1)*in.M] }
