package main

import (
	"fmt"

	"atomemu/internal/engine"
)

func init() {
	registerLayer(layerDriver{
		Pkg: "obs", Home: "compute_1t", Share: 0.06,
		Metrics: []layerMetric{
			{Name: "obs.trace_events_overhead_pct", Unit: "%", Moves: "guest_mips@compute_1t"},
		},
		Run: runObsLayer,
	})
}

// runObsLayer runs compute_1t's program with the per-vCPU event tracer off
// and on, alternating, and reports how much longer the traced runs take.
func runObsLayer(env *layerEnv) (map[string]float64, error) {
	off, err := computeJob(engine.DefaultConfig("hst"), sweepScale/2)
	if err != nil {
		return nil, err
	}
	on := off
	on.cfg.TraceEvents = true
	var offMS, onMS []float64
	for more := rounds(env.budget, 1, anyNumber); more(); {
		a, b := runMachine(nil, 0, 0, off), runMachine(nil, 0, 0, on)
		if !a.ok || !b.ok {
			return nil, fmt.Errorf("%s%s", a.why, b.why)
		}
		offMS = append(offMS, ms(a.wall))
		onMS = append(onMS, ms(b.wall))
	}
	return map[string]float64{"obs.trace_events_overhead_pct": 100 * (median(onMS) - median(offMS)) / median(offMS)}, nil
}
