//go:build race

package topk

// raceEnabled reports that the race detector is active: its
// instrumentation changes allocation counts, so allocation-pinning
// assertions are skipped.
const raceEnabled = true
