package sat_test

import (
	"fmt"

	"paydemand/internal/sat"
	"paydemand/internal/workload"
)

// Example runs a small SAT-mode campaign: users bid their travel costs
// and the platform assigns tasks centrally by reverse auction.
func Example() {
	res, err := sat.Run(sat.Config{
		Workload: workload.Config{NumTasks: 6, NumUsers: 25, Required: 3},
	}, 7)
	if err != nil {
		panic(err)
	}
	fmt.Println("mechanism:", res.Mechanism)
	fmt.Printf("coverage: %.0f%%\n", res.Coverage*100)
	fmt.Println("all tasks measured:", res.TotalMeasurements == 18)
	// Output:
	// mechanism: sat-auction
	// coverage: 100%
	// all tasks measured: true
}
