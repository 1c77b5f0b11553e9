package paydemand_test

import (
	"fmt"

	"paydemand"
)

// ExampleRun runs the paper's default campaign and prints campaign-level
// facts that are deterministic under the seed.
func ExampleRun() {
	res, err := paydemand.Run(paydemand.Config{}, 42)
	if err != nil {
		panic(err)
	}
	fmt.Println("mechanism:", res.Mechanism)
	fmt.Println("tasks:", res.Tasks)
	fmt.Printf("coverage: %.0f%%\n", res.Coverage*100)
	// Output:
	// mechanism: on-demand
	// tasks: 20
	// coverage: 100%
}

// ExamplePaperAHPMatrix derives the paper's Table II weight vector from
// the Table I judgments.
func ExamplePaperAHPMatrix() {
	pm := paydemand.PaperAHPMatrix()
	w := pm.PaperWeights()
	fmt.Printf("w1 = %.3f, w2 = %.3f, w3 = %.3f\n", w[0], w[1], w[2])
	// Output:
	// w1 = 0.648, w2 = 0.230, w3 = 0.122
}

// ExampleNewRewardScheme shows Eq. 9 with the paper's evaluation
// constants: budget $1000, 400 required measurements, lambda $0.5,
// 5 demand levels.
func ExampleNewRewardScheme() {
	scheme, err := paydemand.NewRewardScheme(1000, 400, 0.5, 5)
	if err != nil {
		panic(err)
	}
	fmt.Printf("r0 = $%.2f\n", scheme.R0)
	for lvl := 1; lvl <= 5; lvl++ {
		fmt.Printf("level %d pays $%.2f\n", lvl, scheme.Reward(lvl))
	}
	// Output:
	// r0 = $0.50
	// level 1 pays $0.50
	// level 2 pays $1.00
	// level 3 pays $1.50
	// level 4 pays $2.00
	// level 5 pays $2.50
}

// ExampleDPSelector solves a small task selection instance optimally.
func ExampleDPSelector() {
	var dp paydemand.DPSelector
	plan, err := dp.Select(paydemand.SelectionProblem{
		Start:        paydemand.Pt(0, 0),
		MaxDistance:  1000,
		CostPerMeter: 0.002,
		Candidates: []paydemand.SelectionCandidate{
			{ID: 1, Location: paydemand.Pt(100, 0), Reward: 2},
			{ID: 2, Location: paydemand.Pt(200, 0), Reward: 2},
			{ID: 3, Location: paydemand.Pt(0, 4000), Reward: 9}, // unreachable
		},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("order:", plan.Order)
	fmt.Printf("profit: $%.2f\n", plan.Profit)
	// Output:
	// order: [1 2]
	// profit: $3.60
}

// ExampleGreedySelector shows the heuristic on the same instance.
func ExampleGreedySelector() {
	var greedy paydemand.GreedySelector
	plan, err := greedy.Select(paydemand.SelectionProblem{
		Start:        paydemand.Pt(0, 0),
		MaxDistance:  1000,
		CostPerMeter: 0.002,
		Candidates: []paydemand.SelectionCandidate{
			{ID: 1, Location: paydemand.Pt(100, 0), Reward: 2},
			{ID: 2, Location: paydemand.Pt(200, 0), Reward: 2},
		},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("order:", plan.Order)
	// Output:
	// order: [1 2]
}

// ExampleNewOnDemandMechanism prices two tasks whose demands differ: the
// starving task (deadline imminent, no progress, no neighbors) earns a
// higher demand level than the nearly-finished one.
func ExampleNewOnDemandMechanism() {
	scheme, _ := paydemand.NewRewardScheme(1000, 400, 0.5, 5)
	mech, _ := paydemand.NewOnDemandMechanism(scheme)
	rewards := make(map[paydemand.TaskID]float64)
	err := mech.RewardsInto(&paydemand.RoundInput{Round: 2, Views: []paydemand.TaskView{
		{ID: 1, Deadline: 2, Required: 20, Received: 0, Neighbors: 0},
		{ID: 2, Deadline: 15, Required: 20, Received: 18, Neighbors: 9},
	}}, rewards)
	if err != nil {
		panic(err)
	}
	fmt.Printf("starving task: $%.2f\n", rewards[1])
	fmt.Printf("satisfied task: $%.2f\n", rewards[2])
	// Output:
	// starving task: $2.50
	// satisfied task: $0.50
}

// ExampleAggregateValues rejects a faulty sensor's reading before
// estimating a task's value.
func ExampleAggregateValues() {
	est, err := paydemand.AggregateValues(
		[]float64{61.0, 60.5, 61.5, 59.9, 250.0}, // one broken microphone
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("estimate %.2f dBA from %d readings (%d rejected)\n",
		est.Value, est.N, est.Rejected)
	// Output:
	// estimate 60.73 dBA from 4 readings (1 rejected)
}

// ExampleGenerateScenario builds a reproducible workload.
func ExampleGenerateScenario() {
	sc, err := paydemand.GenerateScenario(7, paydemand.WorkloadConfig{
		NumTasks: 4,
		NumUsers: 2,
	})
	if err != nil {
		panic(err)
	}
	for _, t := range sc.Tasks {
		fmt.Printf("task %d at %v\n", t.ID, t.Location)
	}
	// Output:
	// task 1 at (2756.68, 694.52)
	// task 2 at (724.16, 2734.69)
	// task 3 at (2094.71, 438.47)
	// task 4 at (1062.64, 1028.05)
}
