//go:build race

package core

// raceEnabled reports whether the race detector instruments this build;
// perf guards skip under it (instrumentation inflates every memory op).
const raceEnabled = true
