package server

import (
	"testing"
	"time"
)

// TestFinishWindowRate pins the one completion-rate rule both daemons'
// Retry-After hints read: the finishes in the window (the last 32) over
// the span from the oldest of them to now, floored at 50 ms; one finish is
// evidence, none is not.
func TestFinishWindowRate(t *testing.T) {
	now := time.Unix(1000, 0)
	ago := func(d time.Duration) time.Time { return now.Add(-d) }
	cases := []struct {
		name     string
		finishes []time.Time
		want     float64
	}{
		{"none", nil, 0},
		{"one, 2s ago", []time.Time{ago(2 * time.Second)}, 0.5},
		{"one, just now: the 50ms floor", []time.Time{now}, 20},
		{"one, in the future: the floor", []time.Time{now.Add(time.Second)}, 20},
		{"two over 1s", []time.Time{ago(time.Second), ago(100 * time.Millisecond)}, 2},
		{"two within 10ms: the floor", []time.Time{ago(10 * time.Millisecond), now}, 40},
		{"oldest first or last alike", []time.Time{ago(100 * time.Millisecond), ago(4 * time.Second)}, 0.5},
	}
	// 40 finishes, one per second: only the newest 32 count, the oldest of
	// them 32s ago.
	var many []time.Time
	for i := 40; i >= 1; i-- {
		many = append(many, ago(time.Duration(i)*time.Second))
	}
	cases = append(cases, struct {
		name     string
		finishes []time.Time
		want     float64
	}{"40 finishes keep the last 32", many, 1})

	for _, c := range cases {
		var w FinishWindow
		for _, f := range c.finishes {
			w.Note(f)
		}
		if got := w.Rate(now); got != c.want {
			t.Errorf("%s: rate = %g, want %g", c.name, got, c.want)
		}
	}
}
