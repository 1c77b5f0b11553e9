package task

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"paydemand/internal/geo"
)

// countModel is the brute-force reference for one task's per-round
// counts: a map from round to measurements, fed by the same acceptance
// rules as State.Record.
type countModel struct {
	task    Task
	atRound map[int]int
	users   map[int]bool
	total   int
}

func (m *countModel) record(user, round int) bool {
	if round < 1 || m.total >= m.task.Required || round > m.task.Deadline || m.users[user] {
		return false
	}
	m.users[user] = true
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
// two-task board and holds every per-round query to a map model:
// ReceivedAt, ReceivedBy, Board.TotalReceivedAt, CoverageBy,
// OverallCompletenessBy and OverallCompleteness. The board must survive
// a Snapshot → RestoreBoard round trip exactly, and restoring a board
// with contributions at huge rounds must allocate in proportion to the
// contributions, not to the round numbers.
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
			models[i] = &countModel{task: tk, atRound: map[int]int{}, users: map[int]bool{}}
		}
		queries := []int{math.MinInt, -1, 0, 1, 2, tasks[0].Deadline, tasks[1].Deadline, math.MaxInt}
		for ; len(ops) >= 3; ops = ops[3:] {
			ti := int(ops[0]>>7) % len(tasks)
			user := int(ops[0] & 0x0f)
			round := decodeRound(ops[1], ops[2], tasks[ti].Deadline)
			err := b.Get(tasks[ti].ID).Record(user, round, 1)
			if ok := models[ti].record(user, round); ok != (err == nil) {
				t.Fatalf("task %d Record(%d, %d): err %v, model accepts %v", tasks[ti].ID, user, round, err, ok)
			}
			queries = append(queries, round-1, round, round+1)
		}

		check := func(b *Board) {
			t.Helper()
			for _, k := range queries {
				total := 0
				covered := 0
				sumBy := 0.0
				for i, m := range models {
					st := b.Get(tasks[i].ID)
					if got, want := st.ReceivedAt(k), m.atRound[k]; got != want {
						t.Fatalf("task %d ReceivedAt(%d) = %d, want %d", tasks[i].ID, k, got, want)
					}
					if got, want := st.ReceivedBy(k), m.by(k); got != want {
						t.Fatalf("task %d ReceivedBy(%d) = %d, want %d", tasks[i].ID, k, got, want)
					}
					total += m.atRound[k]
					if m.by(k) > 0 {
						covered++
					}
					sumBy += math.Min(1, float64(m.by(min(k, m.task.Deadline)))/float64(m.task.Required))
				}
				if got := b.TotalReceivedAt(k); got != total {
					t.Fatalf("TotalReceivedAt(%d) = %d, want %d", k, got, total)
				}
				if got, want := b.CoverageBy(k), float64(covered)/float64(len(tasks)); got != want {
					t.Fatalf("CoverageBy(%d) = %v, want %v", k, got, want)
				}
				if got, want := b.OverallCompletenessBy(k), sumBy/float64(len(tasks)); got != want {
					t.Fatalf("OverallCompletenessBy(%d) = %v, want %v", k, got, want)
				}
			}
			sum := 0.0
			for _, m := range models {
				sum += math.Min(1, float64(m.by(m.task.Deadline))/float64(m.task.Required))
			}
			if got, want := b.OverallCompleteness(), sum/float64(len(tasks)); got != want {
				t.Fatalf("OverallCompleteness = %v, want %v", got, want)
			}
		}
		check(b)

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
