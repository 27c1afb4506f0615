package main

import (
	"time"

	"atomemu/internal/ir"
	"atomemu/internal/translate"
)

func init() {
	registerLayer(layerDriver{
		Pkg: "ir", Home: "cold_translate", Share: 0.01,
		Metrics: []layerMetric{
			{Name: "ir.optimize_us_per_block", Unit: "us", Moves: "cold_start_ms@cold_translate (cost), guest_mips@compute_1t (fewer ops to run)"},
			{Name: "ir.ops_in", Unit: "ops/block", Moves: "guest_mips@compute_1t"},
			{Name: "ir.ops_out", Unit: "ops/block", Moves: "guest_mips@compute_1t"},
		},
		Run: runIRLayer,
	})
}

// runIRLayer times the optimizer alone over every block of a generated
// image. Optimize rewrites its block in place, so each pass re-translates
// (untimed) and times only the Optimize calls.
func runIRLayer(env *layerEnv) (map[string]float64, error) {
	s, err := loadSampleImage(env.seed)
	if err != nil {
		return nil, err
	}
	starts, err := s.blockStarts()
	if err != nil {
		return nil, err
	}
	var opsIn, opsOut int
	var perPass []float64
	for more := rounds(env.budget, 5, anyNumber); more(); {
		blocks := make([]*ir.Block, len(starts))
		for i, pc := range starts {
			if blocks[i], err = translate.Block(s.fetch, pc, hstTranslateOptions()); err != nil {
				return nil, err
			}
		}
		opsIn, opsOut = 0, 0
		for _, b := range blocks {
			opsIn += len(b.Ops)
		}
		t := time.Now()
		for _, b := range blocks {
			ir.Optimize(b)
		}
		perPass = append(perPass, us(time.Since(t)))
		for _, b := range blocks {
			opsOut += len(b.Ops)
		}
	}
	n := float64(len(starts))
	return map[string]float64{
		"ir.optimize_us_per_block": median(perPass) / n,
		"ir.ops_in":                float64(opsIn) / n,
		"ir.ops_out":               float64(opsOut) / n,
	}, nil
}
