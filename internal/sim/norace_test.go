//go:build !race

package sim

import (
	"runtime"
	"testing"
)

// The warm-trial byte pins (seed 5, amd64, Go 1.24), each the measured
// figure plus 10 to 15%. A warm paper-size Run allocates 24,896
// bytes: the contribution records (first four entries per task, then
// the task's whole need), the plans and the TrialResult, each sized
// once. A cold Run of the same trial allocates 64,616, the difference
// being the engine, solver, RNG sources and round buffers a warm trial
// borrows instead. A warm city-size Run allocates 230,432 bytes (cold:
// 772,096), most of it contribution records and plans.
const (
	warmPaperMaxBytes = 28 << 10
	warmCityMaxBytes  = 248 << 10
)

// warmRunBytes returns the bytes a cold Run of cfg at seed allocates, and
// the fewest bytes of five warm Runs of it. The fewest, because the pool
// is per-P and a run that lands on another P misses the bundle.
func warmRunBytes(t *testing.T, cfg Config, seed int64) (cold, warm uint64) {
	t.Helper()
	runBytes := func() uint64 {
		s, err := New(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.Run(nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	emptyPool()
	cold = runBytes()
	warm = ^uint64(0)
	for range 5 {
		warm = min(warm, runBytes())
	}
	return cold, warm
}

// TestWarmTrialAllocBytes pins what a warm trial allocates: its plans,
// contribution records and TrialResult, and nothing it could borrow. A
// Put dropped from Run, a reset that drops scratch instead of keeping
// its capacity, or a stream seeded into new storage fails here. The race
// detector's pool drops a quarter of its Puts on purpose, so the pin
// runs without it.
func TestWarmTrialAllocBytes(t *testing.T) {
	limits := map[string]uint64{"paper": warmPaperMaxBytes, "city": warmCityMaxBytes}
	for _, sz := range trialSizes {
		limit := limits[sz.name]
		cold, warm := warmRunBytes(t, sz.cfg, 5)
		t.Logf("%s trial Run: %d bytes cold, %d warm", sz.name, cold, warm)
		if warm > limit {
			t.Errorf("a warm %s trial's Run allocated %d bytes, want at most %d (cold: %d)", sz.name, warm, limit, cold)
		}
	}
}
