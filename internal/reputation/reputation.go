// Package reputation tracks per-user sensing quality. The paper requires
// several independent measurements per task precisely because "the quality
// of sensing data varies from person to person"; this package makes that
// variation observable: every time a task's measurement set is aggregated,
// each contributor's reading is compared with the consensus and its
// reputation score updated with an exponentially weighted moving average.
// Downstream, scores can weight aggregation (WeightedMean) or gate
// participation.
package reputation

import (
	"errors"
	"fmt"
	"math"
)

// Defaults for NewTracker.
const (
	// DefaultAlpha is the EWMA smoothing factor: each observation moves
	// the score 20% of the way to the observed agreement.
	DefaultAlpha = 0.2
	// DefaultInitial is the score assigned to unseen users.
	DefaultInitial = 0.5
)

// Tracker maintains reputation scores in [0, 1]. The zero value is not
// usable; construct with NewTracker. Tracker is not safe for concurrent
// use; callers serialize access (the platform updates under its lock).
type Tracker struct {
	alpha   float64
	initial float64
	scores  map[int]float64
	// observations counts updates per user.
	observations map[int]int
}

// NewTracker builds a tracker. alpha is the EWMA factor in (0, 1];
// initial is the score for unseen users in [0, 1]. Zero values select the
// defaults.
func NewTracker(alpha, initial float64) (*Tracker, error) {
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	if initial == 0 {
		initial = DefaultInitial
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("reputation: alpha %v, want in (0, 1]", alpha)
	}
	if initial < 0 || initial > 1 {
		return nil, fmt.Errorf("reputation: initial score %v, want in [0, 1]", initial)
	}
	return &Tracker{
		alpha:        alpha,
		initial:      initial,
		scores:       make(map[int]float64),
		observations: make(map[int]int),
	}, nil
}

// Score returns the user's reputation, or the initial score if unseen.
func (t *Tracker) Score(user int) float64 {
	if s, ok := t.scores[user]; ok {
		return s
	}
	return t.initial
}

// Observations returns how many times the user's score was updated.
func (t *Tracker) Observations(user int) int { return t.observations[user] }

// Agreement maps the deviation of a reading from the consensus to [0, 1]:
// 1 at zero deviation, decaying exponentially with scale tolerance
// (agreement = exp(-|value-consensus|/tolerance)). A non-positive
// tolerance returns 1 only on exact agreement.
func Agreement(value, consensus, tolerance float64) float64 {
	dev := math.Abs(value - consensus)
	if tolerance <= 0 {
		if dev == 0 {
			return 1
		}
		return 0
	}
	return math.Exp(-dev / tolerance)
}

// Observe updates the user's score with the agreement between its reading
// and the consensus, at the given tolerance scale.
func (t *Tracker) Observe(user int, value, consensus, tolerance float64) {
	a := Agreement(value, consensus, tolerance)
	t.scores[user] = (1-t.alpha)*t.Score(user) + t.alpha*a
	t.observations[user]++
}

// Contribution pairs a contributor with its uploaded reading.
type Contribution struct {
	User  int     `json:"user"`
	Value float64 `json:"value"`
}

// ObserveTask updates every contributor of one task against the supplied
// consensus value.
func (t *Tracker) ObserveTask(contribs []Contribution, consensus, tolerance float64) {
	for _, c := range contribs {
		t.Observe(c.User, c.Value, consensus, tolerance)
	}
}

// ErrNoWeight is returned by WeightedMean when every weight is zero.
var ErrNoWeight = errors.New("reputation: all weights are zero")

// WeightedMean averages values with the given non-negative weights
// (typically reputation scores), so trusted sensors count more.
func WeightedMean(values, weights []float64) (float64, error) {
	if len(values) != len(weights) {
		return 0, fmt.Errorf("reputation: %d values with %d weights", len(values), len(weights))
	}
	var num, den float64
	for i, v := range values {
		w := weights[i]
		if w < 0 || math.IsNaN(w) {
			return 0, fmt.Errorf("reputation: bad weight %v at %d", w, i)
		}
		num += w * v
		den += w
	}
	if den == 0 {
		return 0, ErrNoWeight
	}
	return num / den, nil
}
