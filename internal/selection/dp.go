package selection

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// DefaultDPMaxTasks bounds the instance size the exact solver accepts
// after reachability filtering. The solver's time and memory scale with
// the number of budget-feasible subsets; at an unbounded budget all 2^m
// are, and the state table reaches 2^m * m entries (~190 MB at m = 20,
// ~830 MB at m = 22). Beyond ~20 the heuristics are the practical choice
// (the paper makes the same observation in Section V-B).
const DefaultDPMaxTasks = 20

// DPHardMaxTasks is the largest MaxTasks the solver will honor, whatever
// the configuration says. Beyond it the bitmask arithmetic silently breaks
// (the int32 row offsets overflow at m >= 27, 1 << m overflows a 32-bit
// int at m >= 31, and the int8 parent links at m > 127) long after memory
// has become absurd: at an unbounded budget, 2^26 * 26 table entries are
// already ~15 GB, and the subset index alone is 256 MB. A configured
// MaxTasks above this cap is clamped, and instances exceeding the clamped
// cap are rejected with ErrTooManyTasks naming both limits, so oversized
// configurations fail loudly instead of computing garbage.
const DPHardMaxTasks = 26

// DP is the paper's optimal dynamic-programming task selection algorithm
// (Section V-A). It runs the Held-Karp style recurrence of Eq. 12 over
// task subsets:
//
//	dp[S | {q}][q] = min over j in S of dp[S][j] + dist(j, q)
//
// where dp[S][j] is the shortest path starting at the user's location,
// visiting exactly the tasks in S, and ending at task j. Among all subsets
// whose shortest path fits the travel budget it returns the one with the
// maximum profit (Eq. 1).
//
// The recurrence runs over the budget frontier only: a state is stored
// when its consumed budget fits MaxDistance, and only subsets holding at
// least one such state are ever visited. Every state a plan can use is
// within budget (a path's prefixes consume no more than the path), so
// the result is the same as over all 2^m subsets, while time and memory
// scale with the number of budget-feasible subsets. Under an unbounded
// budget every subset is feasible and the bound is Theorem 2's O(m^2 2^m)
// time and O(m 2^m) space. On BenchmarkDPReach's m = 16 board in a
// 1000 m square (2-CPU x86-64 host), a 600 m budget keeps 123 subsets
// and solves in ~21 us, 1200 m keeps ~2200 in ~0.8 ms, and an unbounded
// budget keeps all 65535 in ~40 ms with a ~9.4 MB table.
//
// A DP value keeps its tables between calls so repeated Selects (the
// simulation's per-user hot loop) are allocation-free; it is therefore not
// safe for concurrent use.
type DP struct {
	// MaxTasks bounds the filtered instance size; zero means
	// DefaultDPMaxTasks, values above DPHardMaxTasks are clamped to it.
	MaxTasks int

	// Reusable scratch, grown on demand and retained across calls.
	reach    reach     // Select's own filter; Auto and Beam pass theirs
	reward   []float64 // per filtered candidate
	distTo   []float64 // distTo[q*m+j] is the distance from j to q
	live     []uint64  // bitset of the subsets holding a stored state
	rowAt    []int32   // subset -> offset of its row; read only behind its live bit
	dp       []float64 // one m-wide row of consumed budgets per live subset
	parent   []int8    // predecessor links, row for row with dp
	ends     []int     // the stored ends of the subset being extended
	endDist  []float64 // their consumed budgets
	orderRev []int
	order    []int
}

var _ Algorithm = (*DP)(nil)

// Name implements Algorithm.
func (*DP) Name() string { return "dp" }

// maxTasks resolves the configured cap, clamped to DPHardMaxTasks.
func (d *DP) maxTasks() int {
	if d.MaxTasks <= 0 {
		return DefaultDPMaxTasks
	}
	return min(d.MaxTasks, DPHardMaxTasks)
}

// Select implements Algorithm. It returns ErrTooManyTasks if more than
// maxTasks candidates survive reachability filtering.
func (d *DP) Select(p Problem) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	d.reach.filter(&p)
	return d.solve(&p, &d.reach)
}

// solve runs the DP over a validated problem's filtered candidates r.
func (d *DP) solve(p *Problem, r *reach) (Plan, error) {
	m := len(r.idxs)
	if m == 0 {
		return Plan{}, nil
	}
	if m > d.maxTasks() {
		if d.MaxTasks > DPHardMaxTasks {
			return Plan{}, fmt.Errorf("%w: %d candidates, configured cap %d clamped to hard cap %d",
				ErrTooManyTasks, m, d.MaxTasks, DPHardMaxTasks)
		}
		return Plan{}, fmt.Errorf("%w: %d candidates, cap %d", ErrTooManyTasks, m, d.maxTasks())
	}
	if noProfit(p, r) {
		return Plan{}, nil
	}
	// The DP weighs subsets in its own arithmetic, and where the walk
	// about pays for itself that can disagree in the last bits with the
	// plan's own accounting (buildPlan): a chosen plan may state a profit
	// of 0 or just below. A rational user skips it.
	if plan := d.run(p, r); plan.Profit > 0 {
		return plan, nil
	}
	return Plan{}, nil
}

// run is the DP proper over a validated problem's 1 to DPHardMaxTasks
// filtered candidates r.
func (d *DP) run(p *Problem, r *reach) Plan {
	idxs, startDist := r.idxs, r.start
	m := len(idxs)

	// The pair table is symmetric, so read by destination it puts the
	// relaxation into one task on one row.
	d.reward = growFloats(d.reward, m)
	reward := d.reward
	for a, i := range idxs {
		reward[a] = p.Candidates[i].Reward
	}
	d.distTo = pairDists(p, idxs, d.distTo)
	distTo := d.distTo

	// dp stores consumed budget: travel distance plus the per-task
	// overhead of every visit so far. All states of one mask share the
	// same visit count, so travel distance is recoverable per mask.
	ovh, budget := p.PerTaskDistance, p.MaxDistance
	size := 1 << m
	d.live = growUint64s(d.live, (size+63)/64)
	clear(d.live)
	d.rowAt = growInt32s(d.rowAt, size)
	d.dp, d.parent = d.dp[:0], d.parent[:0]
	for a := 0; a < m; a++ {
		if v := startDist[a] + ovh; v <= budget {
			d.dp[d.addRow(1<<a, m)+a] = v
		}
	}
	d.ends = growInts(d.ends, m)
	d.endDist = growFloats(d.endDist, m)

	bestProfit := 0.0 // the empty plan is always feasible with profit 0
	bestMask := 0
	bestEnd := -1
	bestDist := 0.0
	full := uint(size - 1)
	// Masks go live only above the one being extended, so one ascending
	// pass over the live bitset visits every live mask in numeric order.
	for w := range d.live {
		for seen := uint64(0); ; {
			next := d.live[w] &^ seen
			if next == 0 {
				break
			}
			seen |= next & -next
			mask := uint(w<<6 | bits.TrailingZeros64(next))
			at := int(d.rowAt[mask])
			row := d.dp[at : at+m]

			// The mask's stored ends, in ascending task order. The
			// shortest of them is the mask's best path.
			minDist := math.Inf(1)
			minEnd := -1
			ends, endDist := d.ends[:0], d.endDist[:0]
			for rest := mask; rest != 0; rest &= rest - 1 {
				j := bits.TrailingZeros(rest)
				dj := row[j]
				if math.IsInf(dj, 1) {
					continue
				}
				if dj < minDist {
					minDist = dj
					minEnd = j
				}
				ends = append(ends, j)
				endDist = append(endDist, dj)
			}
			if minEnd < 0 {
				continue
			}

			// Subset reward, summed from the highest task down.
			sum := 0.0
			for rest := mask; rest != 0; {
				h := bits.Len(rest) - 1
				sum += reward[h]
				rest &^= 1 << h
			}
			// Movement cost applies to travel only, not to sensing overhead.
			travel := minDist - ovh*float64(bits.OnesCount(mask))
			profit := sum - travel*p.CostPerMeter
			// Strictly-better profit wins; ties prefer the shorter walk so the
			// result is deterministic and minimal.
			if profit > bestProfit+1e-12 ||
				(math.Abs(profit-bestProfit) <= 1e-12 && bestEnd >= 0 && minDist < bestDist) {
				bestProfit = profit
				bestMask = int(mask)
				bestEnd = minEnd
				bestDist = minDist
			}

			// Extend to tasks outside the mask (Eq. 12). State (mask|q, q)
			// is reached from this mask alone, so its value is final here:
			// the first shortest relaxation, kept only within budget.
			for rest := full &^ mask; rest != 0; rest &= rest - 1 {
				q := bits.TrailingZeros(rest)
				to := distTo[q*m : q*m+m]
				best := math.Inf(1)
				from := -1
				for k, j := range ends {
					if nd := endDist[k] + to[j] + ovh; nd < best {
						best = nd
						from = j
					}
				}
				if from < 0 || best > budget {
					continue
				}
				nm := mask | 1<<q
				var dst int
				if d.live[nm>>6]&(1<<(nm&63)) == 0 {
					dst = d.addRow(int(nm), m)
				} else {
					dst = int(d.rowAt[nm])
				}
				d.dp[dst+q] = best
				d.parent[dst+q] = int8(from)
			}
		}
	}

	if bestMask == 0 {
		return Plan{}
	}

	// Reconstruct the visiting order by walking parents back to the start.
	// A stored state's predecessor consumed no more budget, so it is
	// stored too.
	d.orderRev = d.orderRev[:0]
	mask, j := bestMask, bestEnd
	for j >= 0 {
		d.orderRev = append(d.orderRev, idxs[j])
		pj := d.parent[int(d.rowAt[mask])+j]
		mask &^= 1 << j
		j = int(pj)
	}
	d.order = growInts(d.order, len(d.orderRev))
	for i, v := range d.orderRev {
		d.order[len(d.orderRev)-1-i] = v
	}
	return buildPlan(p, d.order)
}

// addRow marks mask live, appends its row of unreached states (+Inf
// budget, no parent) to the retained tables, and returns the row's offset.
// The tables grow by doubling, capped at one row per subset.
func (d *DP) addRow(mask, m int) int {
	at := len(d.dp)
	d.live[mask>>6] |= 1 << (mask & 63)
	d.rowAt[mask] = int32(at)
	if cap(d.dp) < at+m || cap(d.parent) < at+m {
		grow := min(max(at, m), len(d.rowAt)*m-at)
		d.dp = slices.Grow(d.dp, grow)
		d.parent = slices.Grow(d.parent, grow)
	}
	d.dp, d.parent = d.dp[:at+m], d.parent[:at+m]
	row, links := d.dp[at:], d.parent[at:]
	for k := range row {
		row[k] = math.Inf(1)
	}
	for k := range links {
		links[k] = -1
	}
	return at
}

// screenTol is noProfit's relative margin, 512 units of roundoff: about
// five times the rounding its soundness argument has to cover.
const screenTol = 0x1p-44

// noProfit reports whether the DP over the filtered candidates r would
// return the empty plan, without running it. With d_j = r.start[j],
// c = CostPerMeter, ovh = PerTaskDistance and R_f the sum of the rewards
// of every j with d_j <= d_f, it holds when for every candidate f
//
//	R_f - c*d_f < -screenTol*(R_f + c*d_f + c*m*m*ovh)
//
// that is, when no candidate's nearer-or-equal rewards pay for the
// straight walk to it. It reads the start distances the filter computed,
// costs O(m²) additions and no Hypot, and fails on any NaN or infinity,
// so it fires only on finite inputs.
//
// Soundness. The DP returns Plan{} exactly when no live subset's computed
// profit exceeds 1e-12. Take a live subset S of k <= m <= DPHardMaxTasks
// tasks and f its member farthest from the start. Filtered rewards are
// positive, so S's exact reward total is at most R_f. Write u = 2^-53
// and e = 5u for the relative error of Dist: the coordinate differences
// round once, and Hypot's max*sqrt(1+(min/max)²) rounds a quotient, a
// square, a sum, a root and a product, under 3.3u together. In the DP:
//   - the subset reward, summed highest task first, is a recursive sum
//     of k positive terms, so it is at most (1+u)^(k-1)*R_f in any order;
//   - the mask's best budget D is one stored path's chain of 2k-1
//     additions of non-negative terms (its first leg, the same float as
//     d_a; k-1 computed legs; k overheads), and rounding to nearest loses
//     at most a factor 1-u per addition, so D >= (1-u)^(2k-1)*(L+k*ovh)
//     with L the sum of the computed legs. Each leg is at least 1-e
//     times the exact distance, the exact path at least the exact
//     straight distance to f, and d_f at most 1+e times that, so
//     L >= (1-2e)*d_f;
//   - travel = fl(D - fl(ovh*k)) cancels the overheads but not their
//     rounding, at most (2k-1)u*k*ovh in D plus u*k*ovh in the product,
//     so the exact difference is at least (1-(2k-1)u-2e)*d_f - 2k²u*ovh;
//   - cost = fl(travel*c) rounds twice more, and whether the difference
//     is positive or negative, cost >= (1-(2k+1)u-2e)*c*d_f - 4.1k²u*c*ovh.
//
// So before its last rounding the profit is at most
// R_f - c*d_f + 26u*R_f + 63u*c*d_f + 4.1u*m²*c*ovh. The screen's own
// sum, product, difference and margin round within another 27u*R_f +
// 2u*c*d_f + 5u*(the margin), so the test passing leaves the exact
// profit at most 0, and rounding, being monotone, keeps it there. The
// argument takes every result to be normal; a subnormal result instead
// rounds by at most 2^-1075 absolutely, and the at most 56 such
// roundings, scaled by a finite c, stay below 3e-14, under the DP's
// 1e-12. An overflowed path budget is +Inf, a state the DP skips, and an
// overflowed cost only lowers the profit. FuzzSolverEquivalence's
// shapeBreakEven instances, priced within ulps of the straight walk,
// fail with a zero margin.
func noProfit(p *Problem, r *reach) bool {
	c := p.CostPerMeter
	ovhSlack := c * float64(len(r.idxs)*len(r.idxs)) * p.PerTaskDistance
	for _, df := range r.start {
		sum := 0.0
		for j, dj := range r.start {
			if dj <= df {
				sum += p.Candidates[r.idxs[j]].Reward
			}
		}
		cost := c * df
		if !(sum-cost < -screenTol*(sum+cost+ovhSlack)) {
			return false
		}
	}
	return true
}
