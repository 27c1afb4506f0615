package main

import (
	"fmt"
	"time"

	"atomemu/internal/checkpoint"
)

func init() {
	registerLayer(layerDriver{
		Pkg: "checkpoint", Home: "svc_sat_repeat", Share: 0.03,
		Metrics: []layerMetric{
			{Name: "checkpoint.encode_mb_per_s", Unit: "MB/s", Higher: true, Moves: "jobs_per_s@svc_sat_repeat (once warm forks or spills are on)"},
			{Name: "checkpoint.decode_mb_per_s", Unit: "MB/s", Higher: true, Moves: "jobs_per_s@svc_sat_repeat (once warm forks or spills are on)"},
			{Name: "checkpoint.bytes", Unit: "bytes", Moves: "checkpoint.encode_mb_per_s"},
		},
		Run: runCheckpointLayer,
	})
}

// runCheckpointLayer encodes and decodes the last checkpoint of a short
// compute_1t-shaped run.
func runCheckpointLayer(env *layerEnv) (map[string]float64, error) {
	snap, err := sampleCheckpoint()
	if err != nil {
		return nil, err
	}
	var data []byte
	enc, err := timeEach(env.budget/2, 3, time.Second, func() (err error) {
		data, err = checkpoint.EncodeBytes(snap)
		return err
	})
	if err != nil {
		return nil, err
	}
	dec, err := timeEach(env.budget/2, 3, time.Second, func() error {
		_, err := checkpoint.DecodeBytes(data)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("empty checkpoint image")
	}
	mb := float64(len(data)) / 1e6
	return map[string]float64{
		"checkpoint.encode_mb_per_s": mb / median(enc),
		"checkpoint.decode_mb_per_s": mb / median(dec),
		"checkpoint.bytes":           float64(len(data)),
	}, nil
}
