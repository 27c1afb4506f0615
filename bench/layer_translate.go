package main

import (
	"time"

	"atomemu/internal/translate"
)

func init() {
	registerLayer(layerDriver{
		Pkg: "translate", Home: "cold_translate", Share: 0.02,
		Metrics: []layerMetric{
			{Name: "translate.decode_us_per_block", Unit: "us", Moves: "cold_start_ms@cold_translate"},
			{Name: "translate.block_us_per_block", Unit: "us", Moves: "cold_start_ms@cold_translate"},
		},
		Run: runTranslateLayer,
	})
}

// hstTranslateOptions is how the engine translates under hst (stores are
// instrumented, loads are not), with the optimizer off so that ir's driver
// can time it on its own.
func hstTranslateOptions() translate.Options {
	return translate.Options{InstrumentStores: true}
}

// blockStarts walks main's code as the engine would meet it on a
// straight-line image: each block starts where the previous one ended.
func (s *sampleImage) blockStarts() ([]uint32, error) {
	var starts []uint32
	for pc := s.image.Entry; pc < s.codeEnd; {
		d, err := translate.Decode(s.fetch, pc, hstTranslateOptions())
		if err != nil {
			return nil, err
		}
		starts = append(starts, pc)
		pc = d.End()
	}
	return starts, nil
}

func runTranslateLayer(env *layerEnv) (map[string]float64, error) {
	s, err := loadSampleImage(env.seed)
	if err != nil {
		return nil, err
	}
	starts, err := s.blockStarts()
	if err != nil {
		return nil, err
	}
	opts := hstTranslateOptions()
	var terr error
	decode := nsPerOp(env.budget/2, 1, func() {
		for _, pc := range starts {
			if _, err := translate.Decode(s.fetch, pc, opts); err != nil {
				terr = err
			}
		}
	})
	block := nsPerOp(env.budget/2, 1, func() {
		for _, pc := range starts {
			if _, err := translate.Block(s.fetch, pc, opts); err != nil {
				terr = err
			}
		}
	})
	if terr != nil {
		return nil, terr
	}
	perBlock := float64(len(starts)) * float64(time.Microsecond)
	return map[string]float64{
		"translate.decode_us_per_block": decode / perBlock,
		"translate.block_us_per_block":  block / perBlock,
	}, nil
}
