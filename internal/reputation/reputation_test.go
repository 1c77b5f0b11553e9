package reputation

import (
	"errors"
	"math"
	"testing"

	"paydemand/internal/stats"
)

func mustTracker(t *testing.T) *Tracker {
	t.Helper()
	tr, err := NewTracker(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker(1.5, 0.5); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, err := NewTracker(-0.1, 0.5); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := NewTracker(0.2, 1.5); err == nil {
		t.Error("initial > 1 accepted")
	}
	if _, err := NewTracker(0.2, -0.5); err == nil {
		t.Error("negative initial accepted")
	}
	tr, err := NewTracker(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Score(99) != DefaultInitial {
		t.Errorf("unseen score = %v", tr.Score(99))
	}
}

func TestAgreement(t *testing.T) {
	if got := Agreement(5, 5, 2); got != 1 {
		t.Errorf("exact agreement = %v", got)
	}
	// One tolerance away: e^-1.
	if got := Agreement(7, 5, 2); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Errorf("one-tolerance agreement = %v", got)
	}
	if got := Agreement(5, 5, 0); got != 1 {
		t.Errorf("zero-tolerance exact = %v", got)
	}
	if got := Agreement(5.1, 5, 0); got != 0 {
		t.Errorf("zero-tolerance off = %v", got)
	}
}

func TestObserveMovesScore(t *testing.T) {
	tr := mustTracker(t)
	// Perfect agreement raises the score toward 1.
	tr.Observe(1, 10, 10, 1)
	if got := tr.Score(1); math.Abs(got-(0.8*0.5+0.2*1)) > 1e-12 {
		t.Errorf("score after agreement = %v", got)
	}
	// Wild disagreement pushes toward 0.
	tr.Observe(2, 100, 10, 1)
	if got := tr.Score(2); got >= 0.5 {
		t.Errorf("score after disagreement = %v", got)
	}
	if tr.Observations(1) != 1 || tr.Observations(3) != 0 {
		t.Error("observation counts wrong")
	}
}

func TestScoreStaysInUnitInterval(t *testing.T) {
	tr := mustTracker(t)
	rng := stats.NewRNG(3)
	for i := 0; i < 1000; i++ {
		tr.Observe(1, rng.Uniform(-100, 100), 0, rng.Uniform(0.1, 10))
		s := tr.Score(1)
		if s < 0 || s > 1 {
			t.Fatalf("score %v escaped [0, 1]", s)
		}
	}
}

func TestHonestAndFaultySensorsDiverge(t *testing.T) {
	tr := mustTracker(t)
	rng := stats.NewRNG(5)
	const truth = 60.0
	for round := 0; round < 50; round++ {
		contribs := []Contribution{
			{User: 1, Value: truth + rng.NormFloat64()},    // honest
			{User: 2, Value: truth + rng.NormFloat64()*30}, // noisy
		}
		tr.ObserveTask(contribs, truth, 3)
	}
	honest, noisy := tr.Score(1), tr.Score(2)
	// Honest ~N(0,1) deviations at tolerance 3 give agreement around
	// exp(-0.27) ~ 0.75; the EWMA should settle in that region.
	if honest < 0.6 {
		t.Errorf("honest sensor score %v, want >= 0.6", honest)
	}
	if noisy >= honest-0.2 {
		t.Errorf("noisy sensor %v too close to honest %v", noisy, honest)
	}
}

func TestWeightedMean(t *testing.T) {
	got, err := WeightedMean([]float64{10, 20}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 12.5 {
		t.Errorf("WeightedMean = %v, want 12.5", got)
	}
	if _, err := WeightedMean([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := WeightedMean([]float64{1}, []float64{-1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := WeightedMean([]float64{1, 2}, []float64{0, 0}); !errors.Is(err, ErrNoWeight) {
		t.Error("zero weights accepted")
	}
}
