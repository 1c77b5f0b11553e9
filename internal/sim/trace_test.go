package sim

import (
	"bufio"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestTraceObserverEmitsValidJSONL(t *testing.T) {
	s, err := New(smallConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	obs := NewTraceObserver(&sb)
	res, err := s.Run(obs)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Err() != nil {
		t.Fatal(obs.Err())
	}

	counts := map[string]int{}
	scanner := bufio.NewScanner(strings.NewReader(sb.String()))
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var lastRoundEnd TraceEvent
	for scanner.Scan() {
		var ev TraceEvent
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", scanner.Text(), err)
		}
		counts[ev.Kind]++
		if ev.Kind == "round_end" {
			lastRoundEnd = ev
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if counts["round_start"] != res.RoundsRun || counts["round_end"] != res.RoundsRun {
		t.Errorf("round events: %v for %d rounds", counts, res.RoundsRun)
	}
	if counts["user_planned"] == 0 {
		t.Error("no user_planned events")
	}
	if lastRoundEnd.Stats == nil || lastRoundEnd.Stats.TotalMeasurements != res.TotalMeasurements {
		t.Errorf("final round_end stats = %+v", lastRoundEnd.Stats)
	}
}

func TestTraceObserverSkipEmptyPlans(t *testing.T) {
	s, err := New(smallConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	obs := NewTraceObserver(&sb)
	obs.SkipEmptyPlans = true
	if _, err := s.Run(obs); err != nil {
		t.Fatal(err)
	}
	scanner := bufio.NewScanner(strings.NewReader(sb.String()))
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		var ev TraceEvent
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == "user_planned" && (ev.Plan == nil || ev.Plan.Empty()) {
			t.Fatal("empty plan event not skipped")
		}
	}
}

// failingWriter injects a sink failure.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestTraceObserverSinkFailureDoesNotAbortRun(t *testing.T) {
	s, err := New(smallConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	obs := NewTraceObserver(failingWriter{})
	if _, err := s.Run(obs); err != nil {
		t.Fatalf("simulation failed because of trace sink: %v", err)
	}
	if obs.Err() == nil {
		t.Error("sink failure not recorded")
	}
}
