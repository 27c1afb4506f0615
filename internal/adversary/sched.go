package adversary

import (
	"errors"
	"math/rand"

	"atomemu/internal/engine"
)

// ErrWedged is the interrupt the stepper delivers when the step budget
// runs out or every runnable vCPU is parked with nobody left to wake it.
// A wedged run is inconclusive, never a finding by itself: the budget may
// simply have been too small for the schedule.
var ErrWedged = errors.New("adversary: step budget exhausted before completion")

// stepRun drives a step-mode machine deterministically, on the calling
// goroutine: it picks a runnable vCPU and a quantum, steps that vCPU until
// the quantum ends (or the vCPU halts, begins a guest wait, or the machine
// stops), and picks again. A step never blocks: a vCPU that begins a futex,
// barrier or join wait returns from Step Waiting, and is runnable again
// once another vCPU's step has ended its wait. Every decision comes from a
// seeded rand over state that is itself a function of the decisions so
// far, so the whole interleaving replays from the seed.
//
// It returns the guest instructions stepped and whether the run wedged
// (budget out, or nobody left to run).
func stepRun(m *engine.Machine, cpus []*engine.CPU, seed uint64, quantumMax int, maxSteps uint64) (uint64, bool) {
	rng := rand.New(rand.NewSource(int64(seed ^ 0x9e3779b97f4a7c15)))
	var total uint64
	for {
		if m.Stopped() {
			return total, false
		}
		// cpus is in spawn order, which assigns ascending tids.
		var runnable []*engine.CPU
		halted := 0
		for _, c := range cpus {
			if c.Halted() {
				halted++
			} else if !c.Waiting() {
				runnable = append(runnable, c)
			}
		}
		if len(runnable) == 0 && halted == len(cpus) {
			return total, false
		}
		// Waiting vCPUs with nobody left to wake them are a deadlock the
		// engine reports itself; if it did not (an injected stuck lock left
		// a spinner mid-quantum earlier, say), the run is wedged.
		if len(runnable) == 0 || total >= maxSteps {
			m.Interrupt(ErrWedged)
			return total, true
		}

		c := runnable[rng.Intn(len(runnable))]
		for k := 1 + rng.Intn(quantumMax); k > 0; k-- {
			alive, _ := c.Step() // a fatal error also reports !alive
			total++
			if !alive || c.Waiting() || m.Stopped() {
				break
			}
		}
	}
}
