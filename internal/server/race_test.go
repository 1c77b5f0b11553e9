//go:build race

package server

// raceEnabled reports whether the race detector is on; its
// instrumentation moves values to the heap, so allocation pins skip.
const raceEnabled = true
