// Package sat implements the Server-Assigned-Tasks (SAT) mode that the
// paper positions the WST mode against (Sections I-II): instead of users
// picking tasks from a published price list, each round the users bid
// their costs and the platform centrally assigns tasks through a reverse
// auction (the Lee-and-Hoh style mechanism the paper cites).
//
// The auction is deliberately simple and cost-truthful in spirit:
//
//   - every user submits, for each open task it can reach this round, a
//     bid equal to its true travel cost inflated by a profit margin;
//   - the platform sorts all bids by amount and greedily awards them,
//     respecting each task's remaining measurement requirement, each
//     user's travel-time budget (marginal travel from the user's previous
//     award this round), and the platform's payment budget;
//   - winners perform their tasks and are paid their bids (first price).
//
// The package exposes the same TrialResult as the WST simulator so the
// experiment harness can compare modes directly.
package sat

import (
	"fmt"
	"math"
	"sort"

	"paydemand/internal/agent"
	"paydemand/internal/engine"
	"paydemand/internal/geo"
	"paydemand/internal/metrics"
	"paydemand/internal/selection"
	"paydemand/internal/stats"
	"paydemand/internal/task"
	"paydemand/internal/workload"
)

// Defaults for the auction.
const (
	// DefaultMargin is the profit margin users add to their true cost.
	DefaultMargin = 0.2
	// DefaultBudget is the platform's payment budget.
	DefaultBudget = 1000.0
	// DefaultMinBid keeps bids strictly positive even for zero-distance
	// tasks, modeling the user's fixed effort of taking a measurement.
	DefaultMinBid = 0.05
)

// Config parameterizes a SAT-mode campaign. Zero values select the same
// paper defaults as the WST simulator where they overlap.
type Config struct {
	// Workload configures scenario generation.
	Workload workload.Config `json:"workload"`
	// Rounds bounds the campaign; zero means the largest deadline.
	Rounds int `json:"rounds"`
	// UserSpeed, UserTimeBudget, CostPerMeter mirror the WST simulator.
	UserSpeed      float64 `json:"user_speed"`
	UserTimeBudget float64 `json:"user_time_budget"`
	CostPerMeter   float64 `json:"cost_per_meter"`
	// Budget is the platform's total payment budget.
	Budget float64 `json:"budget"`
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.UserSpeed == 0 {
		c.UserSpeed = agent.DefaultSpeed
	}
	if c.UserTimeBudget == 0 {
		c.UserTimeBudget = agent.DefaultTimeBudget
	}
	if c.CostPerMeter == 0 {
		c.CostPerMeter = agent.DefaultCostPerMeter
	}
	if c.Budget == 0 {
		c.Budget = DefaultBudget
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Rounds < 0 {
		return fmt.Errorf("sat: rounds %d, want >= 0", c.Rounds)
	}
	// The range checks below are written so that NaN fails them; the
	// IsInf checks reject the "Inf" a flag parser accepts.
	if !(c.UserSpeed > 0) || !(c.UserTimeBudget >= 0) || !(c.CostPerMeter >= 0) ||
		math.IsInf(c.UserSpeed, 1) || math.IsInf(c.UserTimeBudget, 1) || math.IsInf(c.CostPerMeter, 1) {
		return fmt.Errorf("sat: bad user parameters (speed %v, budget %v, cost %v)",
			c.UserSpeed, c.UserTimeBudget, c.CostPerMeter)
	}
	// A user's travel budget is speed × time budget; an infinite one
	// would make every task reachable.
	if math.IsInf(c.UserSpeed*c.UserTimeBudget, 1) {
		return fmt.Errorf("sat: speed %v times time budget %v overflows", c.UserSpeed, c.UserTimeBudget)
	}
	if !(c.Budget > 0) || math.IsInf(c.Budget, 1) {
		return fmt.Errorf("sat: budget %v, want finite > 0", c.Budget)
	}
	return nil
}

// Bid is one user's offer to perform one task this round.
type Bid struct {
	User int     `json:"user"`
	Task task.ID `json:"task"`
	// Amount is what the platform pays if the bid wins.
	Amount float64 `json:"amount"`
}

// Simulation runs a SAT-mode campaign. Create with New, call Run once.
type Simulation struct {
	cfg   Config
	board *task.Board
	// eng runs the snapshot/settle/stats stages shared with the WST
	// simulator; the reverse auction replaces the publish/select stages,
	// so the engine has no mechanism and never reprices.
	eng   *engine.Engine
	users []*agent.User
	ran   bool
	// remainingBudget is the platform's unspent payment budget.
	remainingBudget float64

	// candBuf is collectBids' grow-only candidate buffer.
	candBuf []selection.Candidate
}

// New generates a scenario and prepares the campaign.
func New(cfg Config, seed int64) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	root := stats.NewRNG(seed)
	sc, err := workload.Generate(root.Split(), cfg.Workload)
	if err != nil {
		return nil, err
	}
	board, err := task.NewBoard(sc.Tasks)
	if err != nil {
		return nil, err
	}
	users := make([]*agent.User, len(sc.UserLocations))
	for i, loc := range sc.UserLocations {
		u := agent.New(i+1, loc)
		u.Speed = cfg.UserSpeed
		u.TimeBudget = cfg.UserTimeBudget
		u.CostPerMeter = cfg.CostPerMeter
		users[i] = u
	}
	eng, err := engine.New(engine.Config{Board: board})
	if err != nil {
		return nil, err
	}
	return &Simulation{
		cfg:             cfg,
		board:           board,
		eng:             eng,
		users:           users,
		remainingBudget: cfg.Budget,
	}, nil
}

// Board exposes the task board.
func (s *Simulation) Board() *task.Board { return s.board }

// rounds resolves the horizon.
func (s *Simulation) rounds() int {
	if s.cfg.Rounds > 0 {
		return s.cfg.Rounds
	}
	return s.board.MaxDeadline()
}

// Run executes the campaign.
func (s *Simulation) Run() (metrics.TrialResult, error) {
	if s.ran {
		return metrics.TrialResult{}, fmt.Errorf("sat: Run called twice")
	}
	s.ran = true
	result := metrics.TrialResult{
		Mechanism: "sat-auction",
		Algorithm: "reverse-auction",
		Users:     len(s.users),
		Tasks:     s.board.Len(),
	}
	horizon := s.rounds()
	for k := 1; k <= horizon; k++ {
		rs, err := s.runRound(k)
		if err != nil {
			return metrics.TrialResult{}, fmt.Errorf("sat: round %d: %w", k, err)
		}
		result.Rounds = append(result.Rounds, rs)
		result.RoundsRun = k
	}
	s.eng.FinishTrial(&result)
	result.UserProfits = make([]float64, len(s.users))
	for i, u := range s.users {
		result.UserProfits[i] = u.Profit()
	}
	result.AvgUserProfit = stats.Mean(result.UserProfits)
	result.ProfitGini = stats.Gini(result.UserProfits)
	return result, nil
}

// runRound executes one bid/assign/perform cycle. The engine snapshots
// the open set and settles awarded measurements; the auction itself —
// bid collection and greedy winner determination — is this driver's.
func (s *Simulation) runRound(k int) (metrics.RoundStats, error) {
	rs := metrics.RoundStats{Round: k}
	open := s.eng.BeginRound(k)
	rs.OpenTasks = len(open)
	if len(open) == 0 {
		s.eng.FinishRoundStats(&rs)
		return rs, nil
	}

	bids := s.collectBids()
	if len(bids) > 0 {
		total := 0.0
		for _, b := range bids {
			total += b.Amount
		}
		rs.MeanPublishedReward = total / float64(len(bids))
	}

	// Greedy winner determination: cheapest bids first.
	sort.Slice(bids, func(i, j int) bool {
		if bids[i].Amount != bids[j].Amount {
			return bids[i].Amount < bids[j].Amount
		}
		if bids[i].User != bids[j].User {
			return bids[i].User < bids[j].User
		}
		return bids[i].Task < bids[j].Task
	})

	// Per-user marginal state during assignment, by slot: user IDs are
	// slot+1, and the population never changes.
	pos := make([]geo.Point, len(s.users))
	travelLeft := make([]float64, len(s.users))
	won := make([]bool, len(s.users))
	for i, u := range s.users {
		pos[i] = u.Location
		travelLeft[i] = u.MaxTravelDistance()
	}

	for _, b := range bids {
		st := s.board.Get(b.Task)
		if !st.OpenAt(k) || st.Contributed(b.User) {
			continue
		}
		i := b.User - 1
		u := s.users[i]
		// Marginal travel from the user's position after earlier awards.
		d := pos[i].Dist(st.Location)
		if d > travelLeft[i] {
			continue
		}
		if b.Amount > s.remainingBudget {
			continue
		}
		if err := s.eng.CommitPaid(b.User, b.Task, b.Amount); err != nil {
			return rs, err
		}
		s.remainingBudget -= b.Amount
		travelLeft[i] -= d
		pos[i] = st.Location
		u.AddProfit(b.Amount - d*u.CostPerMeter)
		rs.RoundProfit += b.Amount - d*u.CostPerMeter
		if !won[i] {
			won[i] = true
			rs.ActiveUsers++
		}
	}

	// Winners end the round at their last assigned task.
	for i, u := range s.users {
		u.MoveTo(pos[i])
	}
	s.eng.FinishRoundStats(&rs)
	return rs, nil
}

// collectBids gathers every user's per-task offers for the round, users
// in slot order: one bid per task of the engine's open snapshot that the
// user can reach within its travel budget and has not yet measured, in
// board order, at the user's true travel cost plus margin and minimum
// bid. The engine's ProblemInto assembles exactly that task list; bids
// are collected before the round's first award, so every snapshot task
// still accepts measurements.
func (s *Simulation) collectBids() []Bid {
	var bids []Bid
	for _, u := range s.users {
		var p selection.Problem
		p, s.candBuf = s.eng.ProblemInto(engine.Spec{
			Start:        u.Location,
			MaxDistance:  u.MaxTravelDistance(),
			CostPerMeter: u.CostPerMeter,
		}, u, s.candBuf)
		for _, c := range p.Candidates {
			d := u.Location.Dist(c.Location)
			amount := d*u.CostPerMeter*(1+DefaultMargin) + DefaultMinBid
			bids = append(bids, Bid{User: u.ID, Task: c.ID, Amount: amount})
		}
	}
	return bids
}

// Run builds and runs a SAT campaign in one call.
func Run(cfg Config, seed int64) (metrics.TrialResult, error) {
	s, err := New(cfg, seed)
	if err != nil {
		return metrics.TrialResult{}, err
	}
	return s.Run()
}
