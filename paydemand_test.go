package paydemand_test

import (
	"math"
	"strings"
	"testing"

	"paydemand"
)

// TestQuickstart exercises the README's quick-start path through the
// public API only.
func TestQuickstart(t *testing.T) {
	res, err := paydemand.Run(paydemand.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Users != 100 || res.Tasks != 20 {
		t.Errorf("paper defaults: %d users, %d tasks", res.Users, res.Tasks)
	}
	if res.Coverage <= 0.9 {
		t.Errorf("on-demand coverage = %v, expected near 1", res.Coverage)
	}
}

// TestFacadeMechanismKinds runs one trial of each mechanism kind the
// facade exports beyond the paper's three.
func TestFacadeMechanismKinds(t *testing.T) {
	for _, kind := range []paydemand.MechanismKind{paydemand.MechanismAuction, paydemand.MechanismIncentMe} {
		res, err := paydemand.Run(paydemand.Config{Mechanism: kind}, 1)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Mechanism != kind.String() || res.TotalMeasurements == 0 {
			t.Errorf("%v: mechanism %q, %d measurements", kind, res.Mechanism, res.TotalMeasurements)
		}
	}
}

func TestPublicSelectionAPI(t *testing.T) {
	problem := paydemand.SelectionProblem{
		Start:        paydemand.Pt(0, 0),
		MaxDistance:  1000,
		CostPerMeter: 0.002,
		Candidates: []paydemand.SelectionCandidate{
			{ID: 1, Location: paydemand.Pt(100, 0), Reward: 2},
			{ID: 2, Location: paydemand.Pt(300, 0), Reward: 1},
		},
	}
	var dp paydemand.DPSelector
	plan, err := dp.Select(problem)
	if err != nil {
		t.Fatal(err)
	}
	var greedy paydemand.GreedySelector
	gplan, err := greedy.Select(problem)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Profit < gplan.Profit {
		t.Errorf("dp profit %v < greedy %v", plan.Profit, gplan.Profit)
	}
}

func TestPublicIncentiveAPI(t *testing.T) {
	scheme, err := paydemand.NewRewardScheme(1000, 400, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if scheme.R0 != 0.5 {
		t.Errorf("r0 = %v, want 0.5 (paper Eq. 9)", scheme.R0)
	}
	mech, err := paydemand.NewOnDemandMechanism(scheme)
	if err != nil {
		t.Fatal(err)
	}
	rewards := make(map[paydemand.TaskID]float64)
	if err := mech.RewardsInto(&paydemand.RoundInput{Round: 1, Views: []paydemand.TaskView{
		{ID: 1, Deadline: 10, Required: 20},
	}}, rewards); err != nil {
		t.Fatal(err)
	}
	if len(rewards) != 1 {
		t.Fatalf("rewards = %v", rewards)
	}
	fixed, err := paydemand.NewFixedMechanism(scheme)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Name() != "fixed" {
		t.Error("fixed name wrong")
	}
	fr := make(map[paydemand.TaskID]float64)
	if err := fixed.RewardsInto(&paydemand.RoundInput{
		Round: 1,
		Views: []paydemand.TaskView{{ID: 1, Deadline: 10, Required: 20}},
		RNG:   paydemand.NewMechanismRNG(42),
	}, fr); err != nil {
		t.Fatal(err)
	}
	if len(fr) != 1 {
		t.Fatalf("fixed rewards = %v", fr)
	}
	auction := paydemand.NewAuctionMechanism()
	ar := make(map[paydemand.TaskID]float64)
	if err := auction.RewardsInto(&paydemand.RoundInput{
		Round:           1,
		Views:           []paydemand.TaskView{{ID: 1, Location: paydemand.Pt(0, 0), Deadline: 10, Required: 20}},
		Users:           []paydemand.Point{paydemand.Pt(20, 0), paydemand.Pt(0, 90)},
		Budget:          10,
		BidCostPerMeter: 0.1,
	}, ar); err != nil {
		t.Fatal(err)
	}
	// The users bid 2 and 9. Budget 10 affords only the cheap bid (the
	// 9-bid exceeds 10/2), and the winner's critical payment is capped by
	// the losing bid.
	if ar[1] != 9 {
		t.Errorf("auction reward = %v, want 9", ar[1])
	}
	incentme, err := paydemand.NewIncentMeMechanism(scheme)
	if err != nil {
		t.Fatal(err)
	}
	if err := incentme.RewardsInto(&paydemand.RoundInput{
		Round: 1,
		Views: []paydemand.TaskView{{ID: 1, Deadline: 10, Required: 20}},
	}, make(map[paydemand.TaskID]float64)); err == nil {
		t.Error("incentme priced without a mobility forecast")
	}
	steered := paydemand.NewSteeredMechanism()
	if got := steered.RewardAt(0); math.Abs(got-25) > 1e-9 {
		t.Errorf("steered peak = %v", got)
	}
	scaled, err := paydemand.NewBudgetScaledSteeredMechanism(2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := scaled.RewardAt(0); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("scaled steered peak = %v", got)
	}
}

func TestPublicAHPAPI(t *testing.T) {
	pm := paydemand.PaperAHPMatrix()
	w := pm.PaperWeights()
	want := []float64{0.648, 0.230, 0.122}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 0.001 {
			t.Errorf("w[%d] = %v, want %v", i, w[i], want[i])
		}
	}
	c, err := pm.Consistency()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Acceptable() {
		t.Errorf("paper matrix inconsistent: %+v", c)
	}
}

func TestPublicScenarioAPI(t *testing.T) {
	sc, err := paydemand.GenerateScenario(3, paydemand.WorkloadConfig{
		NumTasks: 5,
		NumUsers: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Tasks) != 5 || len(sc.UserLocations) != 10 {
		t.Errorf("scenario: %d tasks, %d users", len(sc.Tasks), len(sc.UserLocations))
	}
	s, err := paydemand.NewSimulationFromScenario(paydemand.Config{}, sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != 5 {
		t.Errorf("result tasks = %d", res.Tasks)
	}
}

func TestPublicExperimentAPI(t *testing.T) {
	ids := paydemand.ExperimentIDs()
	if len(ids) != 22 {
		t.Fatalf("ExperimentIDs = %v", ids)
	}
	f, err := paydemand.RunExperiment("fig6a", paydemand.ExperimentOptions{
		Trials:    1,
		UserSweep: []int{40},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := paydemand.RenderFigureTable(&sb, f); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fig6a") {
		t.Errorf("render output: %q", sb.String())
	}
	if err := paydemand.RenderFigureCSV(&sb, f); err != nil {
		t.Fatal(err)
	}
	if err := paydemand.RenderFigurePlot(&sb, f, 40, 8); err != nil {
		t.Fatal(err)
	}
}

func TestPublicBoardAPI(t *testing.T) {
	b, err := paydemand.NewBoard([]paydemand.Task{
		{ID: 1, Location: paydemand.Pt(10, 10), Deadline: 5, Required: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 || b.TotalRequired() != 2 {
		t.Error("board accessors wrong")
	}
}
