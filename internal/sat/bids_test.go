package sat

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"paydemand/internal/workload"
)

// TestSATDigest pins two seeded SAT campaigns bit for bit: the SHA-256 of
// each TrialResult's JSON. Any change to bid collection, winner
// determination or settlement shows up here; update the digests only
// for an intended change of results.
func TestSATDigest(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		seed int64
		want string
	}{
		{"defaults", Config{}, 12345, "7d7825aa1e359f00c85f93855e3a87cb8fee3229fa0dfebb0fe5367e9a1729b3"},
		{"300 users, 60 tasks", Config{Workload: workload.Config{NumUsers: 300, NumTasks: 60}}, 7, "fbdfad5d35fe546926ccf11e956aed0b2bb78d569a63143b637f59333facda24"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Run(tt.cfg, tt.seed)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tt.want {
				t.Errorf("digest %s, want %s", got, tt.want)
			}
		})
	}
}

// roundBids opens round k on the simulation's engine and collects the
// round's bids.
func roundBids(s *Simulation, k int) []Bid {
	s.eng.BeginRound(k)
	return s.collectBids()
}

// TestCollectBidsMatchesScan checks bid collection against the plain
// double loop — users in slot order × open tasks in board order, keeping
// every task within the user's travel budget (!(d > maxTravel)) that the
// user has not yet measured — with amounts compared bit for bit. The
// boards are taken mid-campaign (users have moved and contributed), and
// each one places a user exactly on a task, a user whose budget ends
// exactly at a task, one whose budget ends one ulp short of a task, and
// one with no travel budget at all.
func TestCollectBidsMatchesScan(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		cfg := Config{Workload: workload.Config{
			NumTasks: 4 + rng.Intn(40),
			NumUsers: 4 + rng.Intn(60),
			Required: 1 + rng.Intn(5),
		}}
		if trial%2 == 1 {
			cfg.UserTimeBudget = 20 + 400*rng.Float64()
		}
		s, err := New(cfg, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		k := 1
		for warm := rng.Intn(4); k <= warm; k++ {
			if _, err := s.runRound(k); err != nil {
				t.Fatal(err)
			}
		}
		open := s.board.OpenAt(k)
		if len(open) == 0 {
			continue
		}
		pick := func() int { return rng.Intn(len(s.users)) }
		// A user standing on a task.
		s.users[pick()].MoveTo(open[rng.Intn(len(open))].Location)
		// A user whose budget reaches a task exactly, and one whose budget
		// falls one ulp short of another.
		for _, short := range []bool{false, true} {
			u := s.users[pick()]
			d := u.Location.Dist(open[rng.Intn(len(open))].Location)
			if short {
				d = math.Nextafter(d, 0)
			}
			u.Speed, u.TimeBudget = 1, d
		}
		// A user with no travel budget bids only on tasks where it stands.
		s.users[pick()].TimeBudget = 0

		var want []Bid
		for _, u := range s.users {
			maxTravel := u.MaxTravelDistance()
			for _, st := range open {
				d := u.Location.Dist(st.Location)
				if d > maxTravel || st.Contributed(u.ID) {
					continue
				}
				want = append(want, Bid{User: u.ID, Task: st.ID, Amount: d*u.CostPerMeter*(1+DefaultMargin) + DefaultMinBid})
			}
		}
		got := roundBids(s, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d round %d: %d bids, want %d", trial, k, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.User != w.User || g.Task != w.Task || math.Float64bits(g.Amount) != math.Float64bits(w.Amount) {
				t.Fatalf("trial %d round %d: bid %d = {user %d, task %d, %v}, want {user %d, task %d, %v}",
					trial, k, i, g.User, g.Task, g.Amount, w.User, w.Task, w.Amount)
			}
		}
	}
}
