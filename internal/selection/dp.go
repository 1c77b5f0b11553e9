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
	idxs, startDist := r.idxs, r.start
	m := len(idxs)
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
		return Plan{}, nil
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
	return buildPlan(p, d.order), nil
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
