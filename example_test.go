package gridsched_test

import (
	"context"
	"fmt"

	"gridsched"
)

// Example mirrors the README quick start at a small evaluation budget:
// a typed solver value carries the configuration, the Budget carries
// the stop conditions, and any registered solver runs by name under the
// same contract.
func Example() {
	ctx := context.Background()
	inst, err := gridsched.GenerateInstance("u_i_hihi.0")
	if err != nil {
		fmt.Println(err)
		return
	}
	minmin := gridsched.MinMin(inst).Makespan()

	p := gridsched.DefaultParams()
	res, err := gridsched.PACGA{Params: p}.Solve(ctx, inst,
		gridsched.Budget{MaxEvaluations: 2000})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("PA-CGA at least as good as Min-min:", res.BestFitness <= minmin)

	res2, err := gridsched.Solve(ctx, "tabu", inst, gridsched.SolveOptions{
		Budget: gridsched.Budget{MaxEvaluations: 2000},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("tabu at least as good as Min-min:", res2.BestFitness <= minmin)
	// Output:
	// PA-CGA at least as good as Min-min: true
	// tabu at least as good as Min-min: true
}
