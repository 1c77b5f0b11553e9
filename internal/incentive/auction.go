package incentive

import (
	"fmt"
	"math"
	"slices"

	"paydemand/internal/task"
)

// Auction is a budget-limited truthful reverse auction in the
// proportional-share style of Singer's budget-feasible mechanisms (and the
// truthful scheduling mechanisms of Han et al.): workers bid their claimed
// participation costs, the platform selects the cheapest prefix the budget
// can cover, and every winner is paid the same critical price.
//
// Clearing rule, per round, over bids sorted ascending by (Cost, Worker):
//
//	k   = the largest prefix length with sorted[k-1].Cost <= B/k
//	pay = min(B/k, sorted[k].Cost)   (the second term only when a k+1th
//	                                  bid exists)
//
// Winner selection is monotone (lowering a bid never loses a won slot) and
// pay is each winner's critical value — the highest bid at which it still
// wins — so truthful bidding is a dominant strategy (pinned by the
// truthfulness property test). Total payment k*pay <= k*(B/k) = B, so the
// budget is never exceeded, and pay >= every winner's bid, so winners
// never run at a loss.
//
// The uniform payment doubles as the round's per-measurement reward for
// every open task: the auction prices labor, not demand, so all tasks
// offer the market-clearing rate. A round whose budget cannot afford even
// the cheapest bid publishes no rewards at all.
//
// RewardsInto builds the round's bids itself (see buildBids), so the cost
// of bidding falls on the auction alone.
type Auction struct {
	// order is grow-only scratch holding the round's bids, sorted by
	// clearing.
	order []Bid
}

var _ Mechanism = (*Auction)(nil)

// NewAuction constructs the mechanism. The budget, the bid cost and the
// user locations the bids derive from arrive per round through
// RoundInput.
func NewAuction() *Auction { return &Auction{} }

// Name implements Mechanism.
func (m *Auction) Name() string { return "auction" }

// AuctionOutcome describes one clearing: the bids in ascending (Cost,
// Worker) order, the number of winners (a prefix of Order), and the
// uniform payment each winner receives. Order aliases the mechanism's
// scratch and is only valid until the next Clear or RewardsInto call.
type AuctionOutcome struct {
	// Order holds the bids sorted ascending by (Cost, Worker).
	Order []Bid
	// Winners is the number of winning bids; the winners are
	// Order[:Winners].
	Winners int
	// Pay is the uniform payment per winner (0 when Winners is 0).
	Pay float64
}

// compareBids orders ascending by cost, breaking ties by worker index so
// the sort — and with it winner selection — is deterministic. A named
// top-level function keeps slices.SortFunc allocation-free.
func compareBids(a, b Bid) int {
	switch {
	case a.Cost < b.Cost:
		return -1
	case a.Cost > b.Cost:
		return 1
	case a.Worker < b.Worker:
		return -1
	case a.Worker > b.Worker:
		return 1
	}
	return 0
}

// Clear runs the clearing rule over one round's bids. It copies them into
// the mechanism's scratch (bids itself is left untouched), validates,
// sorts, and returns the outcome; steady-state calls allocate nothing.
func (m *Auction) Clear(bids []Bid, budget float64) (AuctionOutcome, error) {
	m.order = append(m.order[:0], bids...)
	return m.clearOrder(budget)
}

// clearOrder is Clear over the bids already in m.order.
func (m *Auction) clearOrder(budget float64) (AuctionOutcome, error) {
	if budget <= 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return AuctionOutcome{}, fmt.Errorf("incentive: auction: budget %v, want finite > 0", budget)
	}
	for _, b := range m.order {
		if b.Cost < 0 || math.IsNaN(b.Cost) || math.IsInf(b.Cost, 0) {
			return AuctionOutcome{}, fmt.Errorf("incentive: auction: worker %d bid %v, want finite >= 0", b.Worker, b.Cost)
		}
	}
	slices.SortFunc(m.order, compareBids)
	k, pay := clearSorted(m.order, budget)
	return AuctionOutcome{Order: m.order, Winners: k, Pay: pay}, nil
}

// clearSorted applies the proportional-share rule to bids already sorted
// ascending by (Cost, Worker).
func clearSorted(sorted []Bid, budget float64) (k int, pay float64) {
	for i, b := range sorted {
		if b.Cost > budget/float64(i+1) {
			break
		}
		k = i + 1
	}
	if k == 0 {
		return 0, 0
	}
	pay = budget / float64(k)
	if k < len(sorted) && sorted[k].Cost < pay {
		pay = sorted[k].Cost
	}
	return k, pay
}

// buildBids derives one claimed-cost bid per user of in into m.order:
// worker i (the index into in.Users) claims in.BidCostPerMeter times the
// distance from its location to the nearest view — the cheapest travel
// that could yield it a measurement. The bids are in user order.
func (m *Auction) buildBids(in *RoundInput) {
	m.order = m.order[:0]
	for i, loc := range in.Users {
		best := math.Inf(1)
		for _, v := range in.Views {
			if d := loc.Dist(v.Location); d < best {
				best = d
			}
		}
		if len(in.Views) == 0 {
			best = 0
		}
		m.order = append(m.order, Bid{Worker: i, Cost: in.BidCostPerMeter * best})
	}
}

// RewardsInto implements Mechanism: it builds the round's bids, clears
// the auction and prices every open task at the uniform winner payment.
// When the budget affords no worker, no task is priced. A bid cost or a
// budget that is not positive is an error.
func (m *Auction) RewardsInto(in *RoundInput, out map[task.ID]float64) error {
	if !(in.BidCostPerMeter > 0) {
		return fmt.Errorf("incentive: auction: RoundInput.BidCostPerMeter is %v, want > 0", in.BidCostPerMeter)
	}
	m.buildBids(in)
	oc, err := m.clearOrder(in.Budget)
	if err != nil {
		return err
	}
	if oc.Winners == 0 {
		return nil
	}
	for _, v := range in.Views {
		out[v.ID] = oc.Pay
	}
	return nil
}
