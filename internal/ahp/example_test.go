package ahp_test

import (
	"fmt"

	"paydemand/internal/ahp"
)

// Example reproduces the paper's Tables I and II: build the pairwise
// comparison matrix over the three demand criteria and derive the weight
// vector with the column-normalized row-mean method (Eq. 6).
func Example() {
	pm, err := ahp.NewPairwiseMatrix([3][3]float64{
		{1, 3, 5},
		{1.0 / 3, 1, 2},
		{1.0 / 5, 1.0 / 2, 1},
	})
	if err != nil {
		panic(err)
	}
	w := pm.PaperWeights()
	fmt.Printf("weights: (%.3f, %.3f, %.3f)\n", w[0], w[1], w[2])

	cons, err := pm.Consistency()
	if err != nil {
		panic(err)
	}
	fmt.Printf("consistent: %v\n", cons.Acceptable())
	// Output:
	// weights: (0.648, 0.230, 0.122)
	// consistent: true
}
