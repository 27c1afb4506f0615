package harness

import (
	"strings"
	"testing"
)

// TestResilienceSmall runs the resilience experiment at 16 threads on a
// small stack: every resilient and recovery row finishes with an intact
// stack, resilient pico-htm finishes on hst after exactly one machine
// demotion, and strict pico-htm still crashes with the paper's livelock.
func TestResilienceSmall(t *testing.T) {
	exp, err := RunResilience(16, 1<<16, 64, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]ResilienceRow{}
	for _, r := range exp.Rows {
		rows[r.Scheme+"/"+r.Mode] = r
		if r.Mode != "resilient" && r.Mode != "recovery" {
			continue
		}
		if r.Crashed || r.CorruptPct != 0 {
			t.Errorf("%s %s: crashed=%v (%s) corrupt=%.2f%%, want an intact stack",
				r.Scheme, r.Mode, r.Crashed, r.Reason, r.CorruptPct)
		}
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7 (three modes per HTM scheme and the hst baseline)", len(rows))
	}
	if r := rows["pico-htm/resilient"]; r.EndScheme != "hst" || r.Fallbacks != 1 {
		t.Errorf("resilient pico-htm ended on %s after %d fallbacks, want hst after exactly one",
			r.EndScheme, r.Fallbacks)
	}
	if r := rows["pico-htm/strict"]; !r.Crashed || !strings.Contains(r.Reason, "livelock") {
		t.Errorf("strict pico-htm: crashed=%v reason=%q, want a livelock crash", r.Crashed, r.Reason)
	}
	if r := rows["hst/baseline"]; r.Crashed || r.CorruptPct != 0 || r.EndScheme != "hst" {
		t.Errorf("hst baseline: %+v", r)
	}
}
