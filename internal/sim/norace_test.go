//go:build !race

package sim

import (
	"runtime"
	"testing"
)

// warmTrialMaxBytes bounds the bytes a warm paper-size Run allocates
// (seed 5): 45,496 on amd64 with Go 1.24, plus an 8% margin. A cold Run
// of the same trial allocates 79,792, the difference being the engine,
// solver and round buffers a warm trial borrows instead.
const warmTrialMaxBytes = 48 << 10

// TestWarmTrialAllocBytes pins what a warm trial allocates: its plans,
// contribution records and round stats, and nothing it could borrow.
// A Put dropped from Run, or a reset that drops scratch instead of
// keeping its capacity, fails here. It is the fewest bytes of five runs
// of one trial, because the pool is per-P and a run that lands on
// another P misses the bundle. The race detector's pool drops a quarter
// of its Puts on purpose, so the pin runs without it.
func TestWarmTrialAllocBytes(t *testing.T) {
	const seed = 5
	cfg := Config{}
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
	cold := runBytes()
	warm := ^uint64(0)
	for range 5 {
		warm = min(warm, runBytes())
	}
	t.Logf("paper trial Run: %d bytes cold, %d warm", cold, warm)
	if warm > warmTrialMaxBytes {
		t.Errorf("a warm paper trial's Run allocated %d bytes, want at most %d (cold: %d)", warm, warmTrialMaxBytes, cold)
	}
}
