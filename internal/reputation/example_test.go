package reputation_test

import (
	"fmt"

	"paydemand/internal/reputation"
)

// Example scores two sensors against a consensus and weights a later
// estimate by their reputations.
func Example() {
	tracker, err := reputation.NewTracker(0.5, 0)
	if err != nil {
		panic(err)
	}
	// Ten aggregation rounds: sensor 1 always agrees with the consensus,
	// sensor 2 is always 30 units off.
	for i := 0; i < 10; i++ {
		tracker.ObserveTask([]reputation.Contribution{
			{User: 1, Value: 60},
			{User: 2, Value: 90},
		}, 60, 5)
	}
	fmt.Printf("sensor 1 score: %.2f\n", tracker.Score(1))
	fmt.Printf("sensor 2 score: %.2f\n", tracker.Score(2))

	est, err := reputation.WeightedMean(
		[]float64{58, 95},
		[]float64{tracker.Score(1), tracker.Score(2)},
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("weighted estimate: %.1f (plain mean would be 76.5)\n", est)
	// Output:
	// sensor 1 score: 1.00
	// sensor 2 score: 0.00
	// weighted estimate: 58.1 (plain mean would be 76.5)
}
