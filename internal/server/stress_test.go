package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"testing"

	"paydemand/internal/demand"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/task"
	"paydemand/internal/wire"
)

// discardLogger silences platform logs in tests.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// jsonBody marshals v into a request body reader.
func jsonBody(v any) (io.Reader, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(b), nil
}

// TestConcurrentSubmissions hammers one platform with parallel uploads
// and advances, then checks every invariant still holds. Run with -race
// to catch locking mistakes.
func TestConcurrentSubmissions(t *testing.T) {
	scheme, err := incentive.SchemeFromBudget(1000, 40, 0.5, demand.LevelMapper{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	mech, err := incentive.NewPaperOnDemand(scheme)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]task.Task, 8)
	for i := range tasks {
		tasks[i] = task.Task{
			ID:       task.ID(i + 1),
			Location: geo.Pt(float64(i*100), float64(i*100)),
			Deadline: 10,
			Required: 5,
		}
	}
	p, err := New(Config{
		Tasks:          tasks,
		Mechanism:      mech,
		Area:           geo.Square(1000),
		NeighborRadius: 300,
		Logger:         discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(p)
	defer srv.Close()

	const nWorkers = 24
	ids := make([]int, nWorkers)
	for i := range ids {
		var reg wire.RegisterResponse
		doJSON(t, srv, http.MethodPost, wire.PathRegister, wire.RegisterRequest{Location: geo.Pt(1, 1)}, &reg)
		ids[i] = reg.UserID
	}

	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 1; round <= 3; round++ {
				req := wire.SubmitRequest{UserID: id, Round: round, Location: geo.Pt(1, 1)}
				for tid := 1; tid <= len(tasks); tid++ {
					req.Measurements = append(req.Measurements, wire.Measurement{
						TaskID: task.ID(tid), Value: float64(tid),
					})
				}
				body, _ := jsonBody(req)
				resp, err := srv.Client().Post(srv.URL+wire.PathSubmit, "application/json", body)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	// Concurrent advances and status reads while uploads fly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			resp, err := srv.Client().Post(srv.URL+wire.PathAdvance, "application/json", nil)
			if err == nil {
				resp.Body.Close()
			}
			resp2, err := srv.Client().Get(srv.URL + wire.PathStatus)
			if err == nil {
				resp2.Body.Close()
			}
		}
	}()
	wg.Wait()

	for _, st := range p.Board().States() {
		if st.Received() > st.Required {
			t.Errorf("task %d over-filled: %d > %d", st.ID, st.Received(), st.Required)
		}
		if st.Contributors() != st.Received() {
			t.Errorf("task %d contributors %d != received %d", st.ID, st.Contributors(), st.Received())
		}
		if len(p.Values(st.ID)) != st.Received() {
			t.Errorf("task %d stored %d values for %d measurements", st.ID, len(p.Values(st.ID)), st.Received())
		}
	}
}

// TestConcurrentSubmitAdvanceSnapshot interleaves uploads, round
// advances, and snapshot captures — the full read-modify-read triangle
// the platform mutex must serialize. Run with -race; it also checks
// every captured snapshot is internally consistent (a snapshot taken
// mid-upload must never see a task's values and its counters disagree)
// and restorable into a fresh platform.
func TestConcurrentSubmitAdvanceSnapshot(t *testing.T) {
	scheme, err := incentive.SchemeFromBudget(1000, 40, 0.5, demand.LevelMapper{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	mech, err := incentive.NewPaperOnDemand(scheme)
	if err != nil {
		t.Fatal(err)
	}
	newPlatform := func() *Platform {
		tasks := make([]task.Task, 8)
		for i := range tasks {
			tasks[i] = task.Task{
				ID:       task.ID(i + 1),
				Location: geo.Pt(float64(i*100), float64(i*100)),
				Deadline: 10,
				Required: 6,
			}
		}
		p, err := New(Config{
			Tasks:          tasks,
			Mechanism:      mech,
			Area:           geo.Square(1000),
			NeighborRadius: 300,
			Logger:         discardLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := newPlatform()
	srv := newServer(p)
	defer srv.Close()

	const nWorkers = 16
	ids := make([]int, nWorkers)
	for i := range ids {
		var reg wire.RegisterResponse
		doJSON(t, srv, http.MethodPost, wire.PathRegister, wire.RegisterRequest{Location: geo.Pt(1, 1)}, &reg)
		ids[i] = reg.UserID
	}

	var (
		wg    sync.WaitGroup
		snapC = make(chan Snapshot, 64)
	)
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 1; round <= 4; round++ {
				req := wire.SubmitRequest{UserID: id, Round: round, Location: geo.Pt(1, 1)}
				for tid := 1; tid <= 8; tid++ {
					req.Measurements = append(req.Measurements, wire.Measurement{
						TaskID: task.ID(tid), Value: float64(tid),
					})
				}
				body, _ := jsonBody(req)
				resp, err := srv.Client().Post(srv.URL+wire.PathSubmit, "application/json", body)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	// Advancer: moves rounds forward while uploads fly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			resp, err := srv.Client().Post(srv.URL+wire.PathAdvance, "application/json", nil)
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	// Snapshotters: capture state continuously, both in-process and via
	// the JSON round trip.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var buf bytes.Buffer
				if err := p.WriteSnapshot(&buf); err != nil {
					t.Error(err)
					return
				}
				snap, err := ReadSnapshot(&buf)
				if err != nil {
					t.Error(err)
					return
				}
				snapC <- snap
			}
		}()
	}
	wg.Wait()
	close(snapC)

	for snap := range snapC {
		if snap.Round < 1 || snap.Round > 11 {
			t.Errorf("snapshot round %d out of range", snap.Round)
		}
		for _, ts := range snap.Board.Tasks {
			received := len(ts.Contributions)
			if received > ts.Task.Required {
				t.Errorf("snapshot task %d over-filled: %d > %d", ts.Task.ID, received, ts.Task.Required)
			}
			if got := len(snap.Contributions[ts.Task.ID]); got != received {
				t.Errorf("snapshot task %d: %d stored values for %d measurements", ts.Task.ID, got, received)
			}
		}
		// Every concurrent snapshot must restore cleanly.
		fresh := newPlatform()
		if err := fresh.Restore(snap); err != nil {
			t.Errorf("restore: %v", err)
		}
	}

	// The live platform's invariants must hold after the storm too.
	for _, st := range p.Board().States() {
		if st.Received() > st.Required {
			t.Errorf("task %d over-filled: %d > %d", st.ID, st.Received(), st.Required)
		}
		if st.Contributors() != st.Received() {
			t.Errorf("task %d contributors %d != received %d", st.ID, st.Contributors(), st.Received())
		}
	}
}
