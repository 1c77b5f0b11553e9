package experiments

import (
	"strings"
	"testing"
)

// TestTableRenderingGolden pins the exact rendering of the deterministic
// (simulation-free) tables, so accidental changes to the AHP math or the
// renderer show up as diffs. Table II pins the derived weights and the
// consistency-ratio note as well as the normalized matrix.
func TestTableRenderingGolden(t *testing.T) {
	tests := []struct {
		id   string
		want string
	}{
		{
			id: "table1",
			want: `== table1: Pairwise comparison matrix A over the demand criteria ==
criterion (column)  C1 (deadline)  C2 (progress)  C3 (neighbors)
                 1              1         0.3333          0.2000
                 2              3              1          0.5000
                 3              5              2               1
`,
		},
		{
			id: "table2",
			want: `== table2: Column-normalized comparison matrix and derived weights ==
note: Paper: W = (0.648, 0.230, 0.122). Consistency ratio computed additionally: 0.0032
criterion (column)  C1 (deadline)  C2 (progress)  C3 (neighbors)  W (row mean)
                 1         0.6522         0.2174          0.1304        0.6479
                 2         0.6667         0.2222          0.1111        0.2299
                 3         0.6250         0.2500          0.1250        0.1222
`,
		},
		{
			id: "table3",
			want: `== table3: Demand levels (N = 5) ==
level  lower bound  upper bound
    1            0       0.2000
    2       0.2000       0.4000
    3       0.4000       0.6000
    4       0.6000       0.8000
    5       0.8000            1
`,
		},
	}
	for _, tt := range tests {
		t.Run(tt.id, func(t *testing.T) {
			f, err := Run(tt.id, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := RenderTable(&sb, f); err != nil {
				t.Fatal(err)
			}
			if got := sb.String(); got != tt.want {
				t.Errorf("rendering changed.\ngot:\n%s\nwant:\n%s", got, tt.want)
			}
		})
	}
}
