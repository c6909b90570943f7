package etc

import (
	"fmt"
	"math"
	"sort"
)

// Metrics summarizes the statistical character of an ETC matrix: the
// quantities the Braun/Ali classification controls (task heterogeneity,
// machine heterogeneity, consistency) measured back from the data. They
// let users check that a generated or imported instance really belongs
// to its nominal class, and they power `etcgen -inspect`.
type Metrics struct {
	// MeanETC and StdETC summarize all matrix entries.
	MeanETC, StdETC float64
	// TaskHeterogeneity is the coefficient of variation of mean task
	// ETCs (how different task sizes are from each other).
	TaskHeterogeneity float64
	// MachineHeterogeneity is the mean over tasks of the per-row
	// coefficient of variation (how differently machines treat one
	// task).
	MachineHeterogeneity float64
	// ConsistencyIndex is the fraction of machine pairs (a, b) whose
	// order is the same for every task: 1.0 for consistent matrices,
	// ~0 for inconsistent ones, intermediate for semi-consistent.
	ConsistencyIndex float64
	// IdealMakespan is the load-balance lower bound assuming every task
	// runs at its per-task minimum ETC and load splits perfectly:
	// Σ_t min_m ETC(t,m) / machines. No schedule can beat it.
	IdealMakespan float64
}

// ComputeMetrics measures the instance.
func ComputeMetrics(in *Instance) Metrics {
	var m Metrics
	n := float64(len(in.Row))

	sum, sumSq := 0.0, 0.0
	for _, v := range in.Row {
		sum += v
		sumSq += v * v
	}
	m.MeanETC = sum / n
	m.StdETC = math.Sqrt(math.Max(0, sumSq/n-m.MeanETC*m.MeanETC))

	// Task heterogeneity (CV of per-task means), machine heterogeneity
	// (mean per-row CV) and the ideal-makespan lower bound all sweep
	// one task's contiguous cost row at a time, so a single pass over
	// the row layout feeds all three.
	taskMeans := make([]float64, in.T)
	cvSum := 0.0
	minSum := 0.0
	for t := 0; t < in.T; t++ {
		tc := in.TaskCosts(t)
		rowSum := 0.0
		best := math.Inf(1)
		for _, v := range tc {
			rowSum += v
			if v < best {
				best = v
			}
		}
		taskMeans[t] = rowSum / float64(in.M)
		cvSum += coefficientOfVariation(tc)
		minSum += best
	}
	m.TaskHeterogeneity = coefficientOfVariation(taskMeans)
	m.MachineHeterogeneity = cvSum / float64(in.T)

	if pairs := in.M * (in.M - 1) / 2; pairs > 0 {
		m.ConsistencyIndex = float64(in.consistentPairs(false)) / float64(pairs)
	} else {
		m.ConsistencyIndex = 1
	}

	m.IdealMakespan = minSum / float64(in.M)
	return m
}

// consistentPairs counts the machine pairs (a, b) that every task
// orders the same way: no task runs faster on a while another runs
// faster on b (ties contradict nothing). With failFast it returns -1 at
// the first contradiction instead.
//
// It sweeps the task rows in order. While every row is non-decreasing
// along the machine order of the first row, no pair can be
// contradicted, so a consistent matrix costs one check per entry. From
// the first row that breaks that order on, it keeps the pairs still
// consistent in shrinking lists, drops each pair at its first
// contradiction and stops once no pair is left.
func (in *Instance) consistentPairs(failFast bool) int {
	m := in.M
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	first := in.TaskCosts(0)
	sort.SliceStable(order, func(i, j int) bool { return first[order[i]] < first[order[j]] })
	// apart[k] records that some row so far ran machine order[k]
	// strictly faster than order[k+1].
	apart := make([]bool, max(m-1, 0))
	t := 0
monotone:
	for ; t < in.T; t++ {
		row := in.TaskCosts(t)
		for k := range apart {
			if row[order[k+1]] < row[order[k]] {
				if failFast && apart[k] {
					return -1
				}
				break monotone
			}
		}
		for k := range apart {
			apart[k] = apart[k] || row[order[k]] != row[order[k+1]]
		}
	}
	if t == in.T {
		return m * (m - 1) / 2
	}

	// slower[a] holds the machines b that some task ran slower than a
	// and none ran faster; tied holds the pairs no task has told apart.
	slower := make([][]int32, m)
	buf := make([]int32, m*(m-1))
	for a := range slower {
		slower[a] = buf[a*(m-1) : a*(m-1) : (a+1)*(m-1)]
	}
	var tied [][2]int32
	for i, a := range order {
		tiedSoFar := true
		for j := i + 1; j < m; j++ {
			tiedSoFar = tiedSoFar && !apart[j-1]
			if tiedSoFar {
				tied = append(tied, [2]int32{int32(a), int32(order[j])})
			} else {
				slower[a] = append(slower[a], int32(order[j]))
			}
		}
	}
	live := m * (m - 1) / 2
	for ; t < in.T && live > 0; t++ {
		row := in.TaskCosts(t)
		live = len(tied)
		for a, bs := range slower {
			va := row[a]
			k := 0
			for _, b := range bs {
				if !(row[b] < va) {
					bs[k] = b
					k++
				}
			}
			if k < len(bs) && failFast {
				return -1
			}
			slower[a] = bs[:k]
			live += k
		}
		k := 0
		for _, p := range tied {
			switch va, vb := row[p[0]], row[p[1]]; {
			case va < vb:
				slower[p[0]] = append(slower[p[0]], p[1])
			case vb < va:
				slower[p[1]] = append(slower[p[1]], p[0])
			default:
				tied[k] = p
				k++
			}
		}
		tied = tied[:k]
	}
	return live
}

func coefficientOfVariation(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	if mean == 0 {
		return 0
	}
	ss := 0.0
	for _, v := range xs {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}

// String renders a compact report.
func (m Metrics) String() string {
	return fmt.Sprintf(
		"etc mean %.2f (std %.2f), task het %.2f, machine het %.2f, consistency %.2f, ideal makespan ≥ %.2f",
		m.MeanETC, m.StdETC, m.TaskHeterogeneity, m.MachineHeterogeneity, m.ConsistencyIndex, m.IdealMakespan)
}
