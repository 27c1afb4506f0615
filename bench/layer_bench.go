package main

import (
	"fmt"
	"path/filepath"
)

func init() {
	registerLayer(layerDriver{
		Pkg: "bench", Home: "svc_open", Share: 0.05,
		Metrics: []layerMetric{
			{Name: "bench.gen_lag_p95_ms", Unit: "ms", Moves: "job_p50_ms@svc_open (a late generator understates load)"},
			{Name: "bench.poll_resolution_ms", Unit: "ms", Moves: "job_p50_ms@svc_open (a job is seen terminal at most this late)"},
		},
		Run: runBenchLayer,
	})
}

// runBenchLayer measures the load generator itself on a short svc_open: how
// late it sends relative to the schedule and how often it looks at a job.
func runBenchLayer(env *layerEnv) (map[string]float64, error) {
	renv := &runEnv{seed: env.seed, window: env.budget, tmp: filepath.Join(env.tmp, "bench-layer")}
	o, stats, err := runSvcStats(renv, svcPlan{open: true})
	if err != nil {
		return nil, err
	}
	for _, s := range o.ops {
		if !s.ok {
			return nil, fmt.Errorf("%s", s.why)
		}
	}
	lag, _ := tailPercentile(stats.genLagMS, 0.95)
	return map[string]float64{
		"bench.gen_lag_p95_ms":     lag,
		"bench.poll_resolution_ms": median(stats.sweepMS),
	}, nil
}
