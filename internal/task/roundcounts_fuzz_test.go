package task

import (
	"cmp"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"paydemand/internal/geo"
)

// countModel is the brute-force reference for one task's per-round
// counts and contributors: maps from round to measurements and from user
// to the round of its measurement, fed by the same acceptance rules as
// State.Record.
type countModel struct {
	task    Task
	atRound map[int]int
	users   map[int]int
	total   int
}

func (m *countModel) record(user, round int) bool {
	if _, dup := m.users[user]; dup || round < 1 || m.total >= m.task.Required || round > m.task.Deadline {
		return false
	}
	m.users[user] = round
	m.atRound[round]++
	m.total++
	return true
}

func (m *countModel) by(round int) int {
	n := 0
	for k, c := range m.atRound {
		if k <= round {
			n += c
		}
	}
	return n
}

// contributions lists the model's contributors as Snapshot does: by
// round, then user.
func (m *countModel) contributions() []ContributionRecord {
	var out []ContributionRecord
	for user, round := range m.users {
		out = append(out, ContributionRecord{User: user, Round: round})
	}
	slices.SortFunc(out, func(a, b ContributionRecord) int {
		return cmp.Or(cmp.Compare(a.Round, b.Round), cmp.Compare(a.User, b.User))
	})
	return out
}

// fuzzUser maps an op byte to one of 16 user ids, 16 apart, so that four
// users share each bit of State's contributor mask that they use.
func fuzzUser(op byte) int { return 16 * int(op&0x0f) }

// checkContributors holds st's contributor queries — Contributed for
// every fuzzed user id, Contributors and Snapshot's Contributions — to
// the model.
func checkContributors(t *testing.T, st *State, m *countModel) {
	t.Helper()
	for k := byte(0); k < 16; k++ {
		user := fuzzUser(k)
		_, want := m.users[user]
		if got := st.Contributed(user); got != want {
			t.Fatalf("task %d Contributed(%d) = %v, want %v", st.ID, user, got, want)
		}
	}
	if got, want := st.Contributors(), len(m.users); got != want {
		t.Fatalf("task %d Contributors() = %d, want %d", st.ID, got, want)
	}
	if got, want := st.Snapshot().Contributions, m.contributions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("task %d Snapshot().Contributions = %v, want %v", st.ID, got, want)
	}
}

// decodeRound maps two fuzz bytes to a round: small rounds around 1
// (including the rejected 0 and negatives) or rounds counted back from
// the deadline, one past it when b1's second bit is set, so a deadline
// near math.MaxInt yields contributions at huge rounds.
func decodeRound(b1, b2 byte, deadline int) int {
	if b1&0x80 == 0 {
		return int(b2) - 2
	}
	r := deadline - int(b2)
	if b1&0x40 != 0 {
		r++
	}
	return r
}

// FuzzTaskRoundCounts drives random Record sequences — out-of-order
// rounds, rejected records, deadlines up to math.MaxInt — through a
// two-task board and, after every operation, holds the contributor
// queries (checkContributors) to a map model and Coverage and
// OverallCompleteness to the model's counts by each task's deadline.
// The board must survive a Snapshot → RestoreBoard round trip exactly,
// and restoring a board with contributions at huge rounds must allocate
// in proportion to the contributions, not to the round numbers.
func FuzzTaskRoundCounts(f *testing.F) {
	f.Add(10, uint8(0x23), []byte{0, 0, 3, 1, 0, 1, 2, 0x80, 4, 0x81, 0x80, 0, 3, 0, 3, 4, 0xc0, 0})
	f.Add(5, uint8(0x77), []byte{0, 0, 7, 0x81, 0, 1, 2, 0x80, 0, 3, 0xc0, 0, 4, 0, 0, 5, 0, 2})
	f.Add(math.MaxInt-1, uint8(0x44), []byte{0, 0x80, 0, 0x81, 0x80, 200, 2, 0x80, 1, 3, 0, 3, 0x84, 0xc0, 1})
	f.Add(1<<40, uint8(0x55), []byte{1, 0x80, 1 << 7, 2, 0, 3, 0x82, 0x80, 9})
	f.Fuzz(func(t *testing.T, deadline int, required uint8, ops []byte) {
		if deadline < 1 {
			return
		}
		tasks := []Task{
			{ID: 1, Location: geo.Pt(0, 0), Deadline: deadline, Required: int(required&0x0f) + 1},
			{ID: 2, Location: geo.Pt(10, 10), Deadline: deadline/2 + 1, Required: int(required>>4) + 1},
		}
		b, err := NewBoard(tasks)
		if err != nil {
			t.Fatal(err)
		}
		models := make([]*countModel, len(tasks))
		for i, tk := range tasks {
			models[i] = &countModel{task: tk, atRound: map[int]int{}, users: map[int]int{}}
		}
		check := func(b *Board) {
			t.Helper()
			covered := 0
			sum := 0.0
			for _, m := range models {
				n := m.by(m.task.Deadline)
				if n > 0 {
					covered++
				}
				sum += math.Min(1, float64(n)/float64(m.task.Required))
			}
			if got, want := b.Coverage(), float64(covered)/float64(len(tasks)); got != want {
				t.Fatalf("Coverage = %v, want %v", got, want)
			}
			if got, want := b.OverallCompleteness(), sum/float64(len(tasks)); got != want {
				t.Fatalf("OverallCompleteness = %v, want %v", got, want)
			}
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			ti := int(ops[0]>>7) % len(tasks)
			user := fuzzUser(ops[0])
			round := decodeRound(ops[1], ops[2], tasks[ti].Deadline)
			err := b.Get(tasks[ti].ID).Record(user, round, 1)
			if ok := models[ti].record(user, round); ok != (err == nil) {
				t.Fatalf("task %d Record(%d, %d): err %v, model accepts %v", tasks[ti].ID, user, round, err, ok)
			}
			for i, m := range models {
				checkContributors(t, b.Get(tasks[i].ID), m)
			}
			check(b)
		}

		snap := b.Snapshot()
		huge := false
		contribs := 0
		for _, ts := range snap.Tasks {
			for _, c := range ts.Contributions {
				huge = huge || c.Round > 1<<20
				contribs++
			}
		}
		var before runtime.MemStats
		if huge {
			runtime.ReadMemStats(&before)
		}
		restored, err := RestoreBoard(snap)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if huge {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			if used, bound := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+1024*contribs); used > bound {
				t.Fatalf("restoring %d contributions at huge rounds allocated %d bytes, want <= %d", contribs, used, bound)
			}
		}
		check(restored)
		if got := restored.Snapshot(); !reflect.DeepEqual(got, snap) {
			t.Fatalf("snapshot round trip:\n got %+v\nwant %+v", got, snap)
		}
	})
}
