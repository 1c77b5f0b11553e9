package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"paydemand/internal/sim"
	"paydemand/internal/wire"
)

// startPlatform runs the binary's serve loop on an ephemeral port and
// returns its base URL plus a stop function.
func startPlatform(t *testing.T, extra ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errCh := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-tasks", "4", "-required", "2"}, extra...)
	go func() { errCh <- run(ctx, args, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, func() error {
			cancel()
			select {
			case err := <-errCh:
				return err
			case <-time.After(5 * time.Second):
				return context.DeadlineExceeded
			}
		}
	case err := <-errCh:
		t.Fatalf("platform exited early: %v", err)
		return "", nil
	}
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == 200 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestPlatformServesAndShutsDown(t *testing.T) {
	base, stop := startPlatform(t, "-round-every", "0")
	var status wire.StatusResponse
	if code := getJSON(t, base+wire.PathStatus, &status); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if status.Round != 1 || status.OpenTasks != 4 {
		t.Errorf("status = %+v", status)
	}
	if code := getJSON(t, base+wire.PathHealth, nil); code != 200 {
		t.Errorf("health = %d", code)
	}
	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestPlatformAutoAdvances(t *testing.T) {
	base, stop := startPlatform(t, "-round-every", "30ms")
	defer stop() //nolint:errcheck // shutdown result checked in the dedicated test
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var status wire.StatusResponse
		getJSON(t, base+wire.PathStatus, &status)
		if status.Round >= 3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("platform never auto-advanced to round 3")
}

func TestPlatformBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-mechanism", "bogus"}, nil); err == nil {
		t.Error("bogus mechanism accepted")
	}
	if err := run(context.Background(), []string{"-budget", "-5"}, nil); err == nil {
		t.Error("negative budget accepted")
	}
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:99999"}, nil); err == nil {
		t.Error("unlistenable address accepted")
	}
}

func TestPlatformStatePersistence(t *testing.T) {
	dir := t.TempDir()
	state := dir + "/campaign.json"

	// First life: register a worker, upload, shut down.
	base, stop := startPlatform(t, "-round-every", "0", "-state", state)
	var reg wire.RegisterResponse
	resp, err := http.Post(base+wire.PathRegister, "application/json", strings.NewReader(`{"location":{"x":1,"y":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	submit := fmt.Sprintf(`{"user_id":%d,"round":1,"measurements":[{"task_id":1,"value":9}],"location":{"x":1,"y":1}}`, reg.UserID)
	resp2, err := http.Post(base+wire.PathSubmit, "application/json", strings.NewReader(submit))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}

	// Second life: the same flags restore the campaign.
	base2, stop2 := startPlatform(t, "-round-every", "0", "-state", state)
	var status wire.StatusResponse
	if code := getJSON(t, base2+wire.PathStatus, &status); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if status.TotalMeasurements != 1 || status.Workers != 1 {
		t.Errorf("restored status = %+v", status)
	}
	if err := stop2(); err != nil {
		t.Fatal(err)
	}
}

// TestPlatformMechanismVariants starts a platform for every mechanism
// name the simulator knows — each kind from 1 up to the first without a
// name — and fetches the published round. The auction prices only tasks
// that workers bid on, so with no worker registered it publishes none.
func TestPlatformMechanismVariants(t *testing.T) {
	n := 0
	for k := sim.MechanismKind(1); ; k++ {
		mech := k.String()
		if _, err := sim.ParseMechanism(mech); err != nil {
			break
		}
		n++
		base, stop := startPlatform(t, "-round-every", "0", "-mechanism", mech)
		var round wire.RoundInfo
		if code := getJSON(t, base+wire.PathRound, &round); code != 200 {
			t.Fatalf("%s: round = %d", mech, code)
		}
		want := 4
		if k == sim.MechanismAuction {
			want = 0
		}
		if len(round.Tasks) != want {
			t.Errorf("%s: %d tasks, want %d", mech, len(round.Tasks), want)
		}
		if err := stop(); err != nil {
			t.Fatalf("%s: shutdown: %v", mech, err)
		}
	}
	if n != 10 {
		t.Errorf("started %d mechanisms, want all 10", n)
	}
}
