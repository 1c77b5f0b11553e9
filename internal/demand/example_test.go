package demand_test

import (
	"fmt"

	"paydemand/internal/demand"
)

// Example computes one round's demands for three tasks that differ in
// exactly one factor each, then maps them to Table III levels.
func Example() {
	cfg := demand.DefaultConfig() // paper's AHP weights (0.648, 0.230, 0.122)
	inputs := []demand.Inputs{
		{Deadline: 3, Progress: 0.5, Neighbors: 5},  // deadline looming
		{Deadline: 15, Progress: 0.0, Neighbors: 5}, // no progress yet
		{Deadline: 15, Progress: 0.5, Neighbors: 0}, // nobody nearby
	}
	norm, err := cfg.NormalizedDemandsInto(3, inputs, nil)
	if err != nil {
		panic(err)
	}
	levels := demand.LevelMapper{N: 5}
	for i, d := range norm {
		fmt.Printf("task %d: demand %.3f, level %d\n", i+1, d, levels.Level(d))
	}
	// The deadline factor carries the largest AHP weight, so task 1 ranks
	// highest.

	// Output:
	// task 1: demand 0.783, level 4
	// task 2: demand 0.299, level 2
	// task 3: demand 0.326, level 2
}

// ExampleConfig_DeadlineFactor shows Eq. 3's growth as the deadline nears.
func ExampleConfig_DeadlineFactor() {
	cfg := demand.DefaultConfig()
	for _, round := range []int{1, 5, 10} {
		fmt.Printf("round %2d: %.4f\n", round, cfg.DeadlineFactor(10, round))
	}
	// Output:
	// round  1: 0.0953
	// round  5: 0.1542
	// round 10: 0.6931
}
