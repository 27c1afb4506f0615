package main

import (
	"time"

	"atomemu/internal/gac"
)

func init() {
	registerLayer(layerDriver{
		Pkg: "gac", Home: "cold_translate", Share: 0.02,
		Metrics: []layerMetric{
			// Compile is set-up in cold_translate but every service job pays
			// it at admission.
			{Name: "gac.compile_us", Unit: "us", Moves: "jobs_per_s@svc_sat_unique"},
		},
		Run: runGacLayer,
	})
}

// runGacLayer compiles the service workloads' repeat pool, round robin.
func runGacLayer(env *layerEnv) (map[string]float64, error) {
	pool := genPool(env.seed)
	i := 0
	compile, err := timeEach(env.budget, len(pool), time.Microsecond, func() error {
		_, err := gac.Compile(pool[i%len(pool)].Source)
		i++
		return err
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"gac.compile_us": median(compile)}, nil
}
