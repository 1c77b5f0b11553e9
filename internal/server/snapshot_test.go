package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/task"
	"paydemand/internal/wire"
)

// runSomeCampaign drives a platform partway: two workers, some uploads,
// one advance.
func runSomeCampaign(t *testing.T, p *Platform) {
	t.Helper()
	srv := newServer(p)
	defer srv.Close()
	for i := 0; i < 2; i++ {
		var reg wire.RegisterResponse
		doJSON(t, srv, http.MethodPost, wire.PathRegister, wire.RegisterRequest{Location: geo.Pt(float64(i), 0)}, &reg)
		doJSON(t, srv, http.MethodPost, wire.PathSubmit, wire.SubmitRequest{
			UserID:       reg.UserID,
			Round:        1,
			Measurements: []wire.Measurement{{TaskID: 1, Value: 50 + float64(i)}},
			Location:     geo.Pt(float64(i), 0),
		}, nil)
	}
	doJSON(t, srv, http.MethodPost, wire.PathAdvance, struct{}{}, nil)
}

func TestSnapshotRestoreResumesCampaign(t *testing.T) {
	original := testPlatform(t)
	runSomeCampaign(t, original)

	var sb strings.Builder
	if err := original.WriteSnapshot(&sb); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}

	restarted := testPlatform(t)
	if err := restarted.Restore(snap); err != nil {
		t.Fatal(err)
	}

	// Same round, same progress, same worker registry.
	origRound := original.Round()
	newRound := restarted.Round()
	if newRound.Round != origRound.Round {
		t.Errorf("round %d != %d", newRound.Round, origRound.Round)
	}
	if got, want := restarted.Board().TotalReceived(), original.Board().TotalReceived(); got != want {
		t.Errorf("received %d != %d", got, want)
	}
	if got, want := restarted.Board().TotalRewardPaid(), original.Board().TotalRewardPaid(); got != want {
		t.Errorf("paid %v != %v", got, want)
	}
	if got, want := restarted.Values(1), original.Values(1); len(got) != len(want) {
		t.Errorf("values %v != %v", got, want)
	}

	// The restarted platform keeps serving: an existing worker can upload
	// to a still-open task; the once-per-user rule survived.
	srv := newServer(restarted)
	defer srv.Close()
	var resp wire.SubmitResponse
	doJSON(t, srv, http.MethodPost, wire.PathSubmit, wire.SubmitRequest{
		UserID:       1,
		Round:        newRound.Round,
		Measurements: []wire.Measurement{{TaskID: 1, Value: 60}},
		Location:     geo.Pt(0, 0),
	}, &resp)
	if resp.Results[0].Accepted {
		t.Error("restored platform forgot user 1 already did task 1")
	}
	var resp2 wire.SubmitResponse
	doJSON(t, srv, http.MethodPost, wire.PathSubmit, wire.SubmitRequest{
		UserID:       2,
		Round:        newRound.Round,
		Measurements: []wire.Measurement{{TaskID: 2, Value: 60}},
		Location:     geo.Pt(0, 0),
	}, &resp2)
	if !resp2.Results[0].Accepted {
		t.Errorf("restored platform rejected a legitimate upload: %+v", resp2.Results[0])
	}
	// New workers continue the ID sequence.
	var reg wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister, wire.RegisterRequest{}, &reg)
	if reg.UserID != 3 {
		t.Errorf("next worker id = %d, want 3", reg.UserID)
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	p := testPlatform(t)
	if err := p.Restore(Snapshot{Version: 99, Round: 1}); err == nil {
		t.Error("wrong version accepted")
	}
	if err := p.Restore(Snapshot{Version: snapshotVersion, Round: 0}); err == nil {
		t.Error("round 0 accepted")
	}
	// Mismatched task set.
	other := Snapshot{Version: snapshotVersion, Round: 1}
	other.Board = testPlatform(t).Board().Snapshot()
	other.Board.Tasks = other.Board.Tasks[:1]
	if err := p.Restore(other); err == nil {
		t.Error("snapshot with missing tasks accepted")
	}
}

// TestRestoreRejectsRewrittenTasks: a snapshot with the configured task
// IDs but a different task spec, or with a contribution dated after the
// snapshot's round, is not the campaign the platform was built for.
func TestRestoreRejectsRewrittenTasks(t *testing.T) {
	base := testPlatform(t)
	runSomeCampaign(t, base)
	good := base.Snapshot()
	if err := testPlatform(t).Restore(good); err != nil {
		t.Fatalf("unmodified snapshot rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(ts *task.Snapshot)
	}{
		{"moved", func(ts *task.Snapshot) { ts.Task.Location = geo.Pt(1e6, 1e6) }},
		{"required", func(ts *task.Snapshot) { ts.Task.Required = 999 }},
		{"deadline", func(ts *task.Snapshot) { ts.Task.Deadline = 1 << 40 }},
		{"future contribution", func(ts *task.Snapshot) {
			ts.Contributions = append(ts.Contributions, task.ContributionRecord{User: 7, Round: good.Round + 1})
		}},
		{"huge round", func(ts *task.Snapshot) {
			ts.Task.Deadline = 1 << 40
			ts.Contributions = append(ts.Contributions, task.ContributionRecord{User: 7, Round: 1 << 39})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := base.Snapshot()
			if snap.Round != 2 {
				t.Fatalf("snapshot round %d, want 2", snap.Round)
			}
			tc.mutate(&snap.Board.Tasks[0])
			p := testPlatform(t)
			before := p.Board().Snapshot()
			if err := p.Restore(snap); err == nil {
				t.Fatal("rewritten snapshot restored")
			}
			if !reflect.DeepEqual(p.Board().Snapshot(), before) {
				t.Error("rejected restore changed the board")
			}
		})
	}
}

// TestRestoreRejectsWorkerIDGaps: worker IDs are handed out 1, 2, ...
// and never freed, so a snapshot's registry must hold exactly the IDs
// 1..next_worker_id. Otherwise the next register would hand out an ID
// already in use, or a registered worker would have none.
func TestRestoreRejectsWorkerIDGaps(t *testing.T) {
	base := testPlatform(t)
	runSomeCampaign(t, base)
	cases := []struct {
		name   string
		mutate func(snap *Snapshot)
	}{
		{"next id behind", func(snap *Snapshot) { snap.NextWorkerID = 0 }},
		{"next id ahead", func(snap *Snapshot) { snap.NextWorkerID = 3 }},
		{"negative next id", func(snap *Snapshot) { snap.NextWorkerID = -1 }},
		{"missing worker", func(snap *Snapshot) { delete(snap.Workers, 1) }},
		{"id past next", func(snap *Snapshot) { snap.Workers[3] = geo.Pt(5, 5) }},
		{"id zero", func(snap *Snapshot) {
			delete(snap.Workers, 2)
			snap.Workers[0] = geo.Pt(5, 5)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := base.Snapshot()
			if snap.NextWorkerID != 2 || len(snap.Workers) != 2 {
				t.Fatalf("base snapshot registry %v, next id %d; want workers 1..2", snap.Workers, snap.NextWorkerID)
			}
			tc.mutate(&snap)
			p := testPlatform(t)
			before := p.Snapshot()
			if err := p.Restore(snap); err == nil {
				t.Fatal("snapshot with a broken worker registry restored")
			}
			if after := p.Snapshot(); !reflect.DeepEqual(after, before) {
				t.Errorf("rejected restore changed the platform:\n got %+v\nwant %+v", after, before)
			}
		})
	}
}

func TestReadSnapshotGarbage(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("{broken")); err == nil {
		t.Error("garbage snapshot parsed")
	}
}

func TestSnapshotDoneCampaign(t *testing.T) {
	p := testPlatform(t)
	for i := 0; i < 10; i++ {
		if _, done, err := p.Advance(); err != nil {
			t.Fatal(err)
		} else if done {
			break
		}
	}
	snap := p.Snapshot()
	if !snap.Done {
		t.Fatal("campaign not done")
	}
	fresh := testPlatform(t)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if info := fresh.Round(); !info.Done || len(info.Tasks) != 0 {
		t.Errorf("restored done campaign publishes: %+v", info)
	}
}

// TestEstimateDuringRestore serves GET /v1/estimate while Restore swaps
// the task board. Run with -race: the handler's task-existence check must
// read the board under the platform mutex that Restore holds.
func TestEstimateDuringRestore(t *testing.T) {
	p := testPlatform(t)
	runSomeCampaign(t, p)
	snap := p.Snapshot()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := p.Restore(snap); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, wire.PathEstimate+"?task=1", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("estimate: status %d: %s", rec.Code, rec.Body)
		}
	}
	<-done
}
