package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"atomemu/internal/durable"
)

func init() {
	registerLayer(layerDriver{
		Pkg: "durable", Home: "svc_sat_unique", Share: 0.04,
		Metrics: []layerMetric{
			{Name: "durable.append_us.always", Unit: "us", Moves: "jobs_per_s@svc_sat_repeat, jobs_per_s@svc_sat_unique"},
			{Name: "durable.append_us.batch", Unit: "us", Moves: "jobs_per_s@svc_sat_repeat, jobs_per_s@svc_sat_unique"},
			{Name: "durable.append_us.never", Unit: "us", Moves: "jobs_per_s@svc_sat_repeat, jobs_per_s@svc_sat_unique"},
			{Name: "durable.replay_us_per_rec", Unit: "us", Moves: "setup_s@svc_open"},
		},
		Run: runDurableLayer,
	})
}

// runDurableLayer appends submitted-job records (the size a service job's
// request makes them) under each fsync policy, then replays one journal.
func runDurableLayer(env *layerEnv) (map[string]float64, error) {
	req := jobBody(genPool(env.seed)[0])
	rec := durable.Record{Type: durable.TypeSubmitted, Job: "job-1", Key: "fab:fab-1", Request: json.RawMessage(req)}
	out := map[string]float64{}
	slice := env.budget / 4
	var replayDir string
	for _, policy := range []durable.SyncPolicy{durable.SyncAlways, durable.SyncBatch, durable.SyncNever} {
		dir := filepath.Join(env.tmp, "journal-"+policy.String())
		j, err := durable.Open(durable.Options{Dir: dir, Sync: policy})
		if err != nil {
			return nil, err
		}
		// Per-append medians would hide the batch policy's every-16th fsync,
		// so time runs of 16 appends; the run count is capped to keep the
		// journal to a few tens of MB.
		var aerr error
		var perRun []float64
		for more := rounds(slice, 4, 64); more(); {
			t := time.Now()
			for i := 0; i < 16; i++ {
				if err := j.Append(rec); err != nil {
					aerr = err
				}
			}
			perRun = append(perRun, float64(time.Since(t))/16)
		}
		perAppend := median(perRun)
		if err := j.Close(); err != nil && aerr == nil {
			aerr = err
		}
		if aerr != nil {
			return nil, fmt.Errorf("journal (%s): %w", policy, aerr)
		}
		out["durable.append_us."+policy.String()] = perAppend / float64(time.Microsecond)
		replayDir = dir
	}
	var records int
	replay, err := timeEach(slice, 3, time.Microsecond, func() error {
		recs, _, err := durable.Replay(replayDir)
		records = len(recs)
		return err
	})
	if err != nil {
		return nil, err
	}
	if records == 0 {
		return nil, fmt.Errorf("replay found no records")
	}
	out["durable.replay_us_per_rec"] = median(replay) / float64(records)
	return out, nil
}
