package adversary

import (
	"atomemu/internal/faultinject"
	"atomemu/internal/workload"
)

// sameSignature decides whether a candidate reproduces a finding: same
// outcome class and same oracle verdict. Error text and trace hashes are
// deliberately excluded — a smaller scenario fails at a different point
// with a different trace, and that is the whole point of shrinking.
func sameSignature(want, got *Outcome) bool {
	return got != nil && got.Class == want.Class && got.OracleViolated() == want.OracleViolated()
}

// Minimize shrinks a failing step-mode scenario with a ddmin-style greedy
// fixpoint: drop fault rules one at a time, halve the thread count and
// the per-thread op count, normalize perturbed engine knobs back to their
// defaults, and finally tighten the step budget to just past the observed
// failure. Every candidate is re-run and accepted only if it reproduces
// the finding's signature. budget bounds the total re-runs.
//
// The result is the smallest accepted scenario and its outcome (which is
// the outcome to pin in a repro: its trace hash belongs to the minimized
// scenario, not the original).
func Minimize(s Scenario, want *Outcome, budget int) (Scenario, *Outcome) {
	best := s.withDefaults()
	bestO := want
	runs := 0
	try := func(c Scenario) bool {
		if runs >= budget {
			return false
		}
		runs++
		o, err := RunScenario(c)
		if err != nil || !sameSignature(want, o) {
			return false
		}
		best = c.withDefaults()
		bestO = o
		return true
	}

	minThreads := 1
	if tg, ok := workload.TargetByName(best.Target); ok && tg.MinThreads > 1 {
		minThreads = tg.MinThreads
	}

	for changed := true; changed && runs < budget; {
		changed = false

		// Pass 1: drop fault rules (a rule that never fired, or whose
		// injection is irrelevant to the failure, goes away).
		for i := 0; i < len(best.Faults); {
			c := best
			c.Faults = append(append([]faultinject.Spec(nil), best.Faults[:i]...), best.Faults[i+1:]...)
			if try(c) {
				changed = true
			} else {
				i++
			}
		}

		// Pass 2: shrink the thread count, halving toward the floor.
		for best.Threads > minThreads {
			c := best
			c.Threads = best.Threads / 2
			if c.Threads < minThreads {
				c.Threads = minThreads
			}
			if !try(c) {
				break
			}
			changed = true
		}

		// Pass 3: halve the per-thread op count.
		for best.Ops > 8 {
			c := best
			c.Ops = best.Ops / 2
			if c.Ops < 8 {
				c.Ops = 8
			}
			if !try(c) {
				break
			}
			changed = true
		}

		// Pass 4: normalize perturbed knobs one at a time. A knob that
		// reverts without losing the failure was noise.
		type knob struct {
			perturbed bool
			apply     func(*Scenario)
		}
		for _, k := range []knob{
			{best.HashBits != 0, func(c *Scenario) { c.HashBits = 0 }},
			{best.HTMInterference != 0, func(c *Scenario) { c.HTMInterference = 0 }},
			{best.WatchdogSCFails != 0, func(c *Scenario) { c.WatchdogSCFails = 0 }},
			{best.QuantumMax != defaultQuantumMax, func(c *Scenario) { c.QuantumMax = defaultQuantumMax }},
			{best.StrictPaper, func(c *Scenario) { c.StrictPaper = false }},
		} {
			if !k.perturbed {
				continue
			}
			c := best
			c.Faults = append([]faultinject.Spec(nil), best.Faults...)
			k.apply(&c)
			if try(c) {
				changed = true
			}
		}

		// Pass 5: tighten the step budget to just past the failure point,
		// so the repro terminates quickly even if the engine regresses
		// into running further than it used to.
		if bestO.Steps > 0 {
			target := bestO.Steps + bestO.Steps/4 + 256
			if target < best.MaxSteps {
				c := best
				c.MaxSteps = target
				if try(c) {
					changed = true
				}
			}
		}
	}
	return best, bestO
}
