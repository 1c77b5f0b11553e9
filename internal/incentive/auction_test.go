package incentive

import (
	"math"
	"slices"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

func TestAuctionBasics(t *testing.T) {
	m := NewAuction()
	if m.Name() != "auction" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestAuctionClearHandExamples(t *testing.T) {
	m := NewAuction()
	for _, tc := range []struct {
		name    string
		costs   []float64
		budget  float64
		winners int
		pay     float64
	}{
		// All three fit: 3 <= 10/3 fails (3.33 ok), so check: 1<=10, 2<=5,
		// 3<=3.33 -> k=3, pay = 10/3.
		{"all win", []float64{1, 2, 3}, 10, 3, 10.0 / 3},
		// k=1 (9 > 10/2): pay = min(10, 9) = 9, capped by the losing bid.
		{"critical payment from loser", []float64{2, 9}, 10, 1, 9},
		// No loser to cap: pay = B/k.
		{"no loser", []float64{2}, 10, 1, 10},
		// Cheapest bid exceeds the budget: nobody wins.
		{"budget too small", []float64{5, 6}, 4, 0, 0},
		// Zero-cost bids are legal and win.
		{"zero cost", []float64{0, 0}, 1, 2, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bids := make([]Bid, len(tc.costs))
			for i, c := range tc.costs {
				bids[i] = Bid{Worker: i, Cost: c}
			}
			oc, err := m.Clear(bids, tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			if oc.Winners != tc.winners {
				t.Errorf("winners = %d, want %d", oc.Winners, tc.winners)
			}
			if math.Abs(oc.Pay-tc.pay) > 1e-12 {
				t.Errorf("pay = %v, want %v", oc.Pay, tc.pay)
			}
		})
	}
}

func TestAuctionClearValidation(t *testing.T) {
	m := NewAuction()
	for _, budget := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := m.Clear([]Bid{{Worker: 0, Cost: 1}}, budget); err == nil {
			t.Errorf("budget %v accepted", budget)
		}
	}
	for _, cost := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := m.Clear([]Bid{{Worker: 0, Cost: cost}}, 10); err == nil {
			t.Errorf("bid cost %v accepted", cost)
		}
	}
}

// TestAuctionDeterministicOrder pins that winner selection works on the
// bids sorted by (Cost, Worker) — never on input (or any map) order: the
// same multiset of bids clears identically under every permutation, and
// cost ties break toward the lower worker index.
func TestAuctionDeterministicOrder(t *testing.T) {
	m := NewAuction()
	base := []Bid{{Worker: 3, Cost: 2}, {Worker: 0, Cost: 5}, {Worker: 1, Cost: 2}, {Worker: 2, Cost: 7}}
	want, err := m.Clear(base, 12)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := append([]Bid(nil), want.Order...)
	// Ties at cost 2: worker 1 before worker 3.
	if wantOrder[0].Worker != 1 || wantOrder[1].Worker != 3 {
		t.Fatalf("tie-break order = %v", wantOrder)
	}
	perms := [][]int{{1, 0, 3, 2}, {3, 2, 1, 0}, {2, 3, 0, 1}}
	for _, p := range perms {
		shuffled := make([]Bid, len(base))
		for i, j := range p {
			shuffled[i] = base[j]
		}
		oc, err := m.Clear(shuffled, 12)
		if err != nil {
			t.Fatal(err)
		}
		if oc.Winners != want.Winners || oc.Pay != want.Pay {
			t.Errorf("perm %v: outcome (%d, %v) != (%d, %v)", p, oc.Winners, oc.Pay, want.Winners, want.Pay)
		}
		for i := range wantOrder {
			if oc.Order[i] != wantOrder[i] {
				t.Errorf("perm %v: order[%d] = %v, want %v", p, i, oc.Order[i], wantOrder[i])
			}
		}
	}
}

// TestAuctionTruthfulness is the property test behind the mechanism's
// truthfulness claim: across seeded populations, no worker can increase
// its utility (payment minus TRUE cost, zero for losers) by bidding
// anything other than its true cost — and total payments never exceed
// the budget, while every winner is paid at least its bid.
func TestAuctionTruthfulness(t *testing.T) {
	m := NewAuction()
	rng := stats.NewRNG(271)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		budget := rng.Uniform(5, 60)
		truth := make([]float64, n)
		bids := make([]Bid, n)
		for w := range bids {
			truth[w] = rng.Uniform(0, 12)
			bids[w] = Bid{Worker: w, Cost: truth[w]}
		}
		base, err := m.Clear(bids, budget)
		if err != nil {
			t.Fatal(err)
		}
		if paid := float64(base.Winners) * base.Pay; paid > budget+1e-9 {
			t.Fatalf("trial %d: total payment %v exceeds budget %v", trial, paid, budget)
		}
		for _, b := range base.Order[:base.Winners] {
			if base.Pay < b.Cost-1e-9 {
				t.Fatalf("trial %d: winner %d paid %v below its bid %v", trial, b.Worker, base.Pay, b.Cost)
			}
		}
		baseUtil := make([]float64, n)
		for _, b := range base.Order[:base.Winners] {
			baseUtil[b.Worker] = base.Pay - truth[b.Worker]
		}
		// Every worker tries a spread of misreports, including tiny
		// perturbations around its truthful bid and around the payment.
		for w := 0; w < n; w++ {
			for _, lie := range []float64{
				0, truth[w] * 0.5, truth[w] * 0.9, truth[w] * 1.1, truth[w] * 2,
				truth[w] + 1e-6, math.Max(0, truth[w]-1e-6),
				base.Pay, base.Pay + 1e-6, math.Max(0, base.Pay-1e-6),
			} {
				bids[w].Cost = lie
				oc, err := m.Clear(bids, budget)
				if err != nil {
					t.Fatal(err)
				}
				util := 0.0
				for _, b := range oc.Order[:oc.Winners] {
					if b.Worker == w {
						util = oc.Pay - truth[w]
					}
				}
				if util > baseUtil[w]+1e-9 {
					t.Fatalf("trial %d: worker %d (true cost %v) gains %v by bidding %v",
						trial, w, truth[w], util-baseUtil[w], lie)
				}
			}
			bids[w].Cost = truth[w]
		}
	}
}

func TestAuctionRewardsInto(t *testing.T) {
	m := NewAuction()
	views := []TaskView{
		{ID: 4, Location: geo.Pt(0, 0), Deadline: 10, Required: 5},
		{ID: 9, Location: geo.Pt(100, 0), Deadline: 10, Required: 5},
	}
	out := map[task.ID]float64{}
	// Each user bids 0.1 per meter to its nearest view: 1 and 2.
	in := &RoundInput{
		Round:           1,
		Views:           views,
		Users:           []geo.Point{geo.Pt(90, 0), geo.Pt(0, 20)},
		Budget:          10,
		BidCostPerMeter: 0.1,
	}
	if err := m.RewardsInto(in, out); err != nil {
		t.Fatal(err)
	}
	// k=2, pay = 10/2 = 5, every task priced at the clearing rate.
	if len(out) != 2 || out[4] != 5 || out[9] != 5 {
		t.Errorf("rewards = %v, want both tasks at 5", out)
	}

	// Budget below the cheapest bid: nothing is priced at all.
	clear(out)
	in.Budget = 0.5
	if err := m.RewardsInto(in, out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("unaffordable round still priced tasks: %v", out)
	}

	// Validation errors surface through RewardsInto too.
	in.Budget = math.NaN()
	if err := m.RewardsInto(in, out); err == nil {
		t.Error("NaN budget accepted")
	}
}

// TestAuctionBidsFromNearestView pins the bid each user submits: the bid
// cost times the distance to the nearest view, in user order, and zero
// distance when no view exists.
func TestAuctionBidsFromNearestView(t *testing.T) {
	m := NewAuction()
	in := &RoundInput{
		Views: []TaskView{
			{ID: 1, Location: geo.Pt(0, 0)},
			{ID: 2, Location: geo.Pt(300, 400)},
		},
		Users:           []geo.Point{geo.Pt(300, 0), geo.Pt(300, 390), geo.Pt(0, 0)},
		BidCostPerMeter: 0.5,
	}
	want := []Bid{{Worker: 0, Cost: 150}, {Worker: 1, Cost: 5}, {Worker: 2, Cost: 0}}
	if m.buildBids(in); !slices.Equal(m.order, want) {
		t.Errorf("bids = %v, want %v", m.order, want)
	}
	in.Views = nil
	m.buildBids(in)
	for _, b := range m.order {
		if b.Cost != 0 {
			t.Errorf("bid with no views = %v, want cost 0", b)
		}
	}
}

// TestAuctionZeroAllocSteadyState pins that repeated clears reuse the
// sorted-bid scratch.
func TestAuctionZeroAllocSteadyState(t *testing.T) {
	m := NewAuction()
	bids := make([]Bid, 64)
	for i := range bids {
		bids[i] = Bid{Worker: i, Cost: float64((i * 37) % 19)}
	}
	if _, err := m.Clear(bids, 100); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.Clear(bids, 100); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state Clear allocates %v objects/op, want 0", allocs)
	}
}
