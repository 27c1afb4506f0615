package main

import "atomemu/internal/arch"

func init() {
	registerLayer(layerDriver{
		Pkg: "arch", Home: "cold_translate", Share: 0.01,
		Metrics: []layerMetric{
			{Name: "arch.decode_ns", Unit: "ns", Moves: "cold_start_ms@cold_translate"},
		},
		Run: runArchLayer,
	})
}

// runArchLayer decodes every instruction word of a generated image.
func runArchLayer(env *layerEnv) (map[string]float64, error) {
	s, err := loadSampleImage(env.seed)
	if err != nil {
		return nil, err
	}
	words := s.image.Words[:(s.codeEnd-s.image.Org)/4]
	var derr error
	perPass := nsPerOp(env.budget, 1, func() {
		for _, w := range words {
			if _, err := arch.Decode(w); err != nil {
				derr = err
			}
		}
	})
	if derr != nil {
		return nil, derr
	}
	return map[string]float64{"arch.decode_ns": perPass / float64(len(words))}, nil
}
