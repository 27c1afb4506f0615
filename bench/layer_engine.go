package main

import (
	"context"
	"fmt"
	"time"

	"atomemu/internal/checkpoint"
	"atomemu/internal/engine"
	"atomemu/internal/gac"
	"atomemu/internal/stats"
)

func init() {
	m := []layerMetric{
		{Name: "engine.new_machine_us", Unit: "us", Moves: "cold_start_ms@cold_translate, jobs_per_s@svc_sat_unique"},
		{Name: "engine.run_self_ms", Unit: "ms", Moves: "cold_start_ms@cold_translate"},
		{Name: "engine.tb_translations", Unit: "count", Moves: "cold_start_ms@cold_translate"},
		{Name: "engine.tb_shared_lookups", Unit: "count", Moves: "cold_start_ms@cold_translate"},
		{Name: "engine.excl_sections", Unit: "count", Moves: "sc_per_s@atomic_2t"},
		{Name: "engine.mips.ir", Unit: "Mi/s", Higher: true, Moves: "guest_mips@compute_1t"},
		{Name: "engine.mips.noopt", Unit: "Mi/s", Higher: true, Moves: "guest_mips@compute_1t"},
		{Name: "engine.mips.tiered", Unit: "Mi/s", Higher: true, Moves: "guest_mips@compute_1t"},
		{Name: "engine.sc_per_s.fused", Unit: "1/s", Higher: true, Moves: "sc_per_s@atomic_2t"},
		{Name: "engine.checkpoint_capture_us", Unit: "us", Moves: "jobs_per_s@svc_sat_repeat (once warm forks are on)"},
		{Name: "engine.resume_from_snapshot_us", Unit: "us", Moves: "jobs_per_s@svc_sat_repeat (once warm forks are on)"},
		// An end-to-end metric of cold_translate only, so BENCHMARK.json can
		// carry it here but not under end_to_end (see README).
		{Name: "cold_start_ms", Unit: "ms", Moves: "itself: job_p50_ms@cold_translate is the same number"},
	}
	for c := stats.Component(0); c < stats.NumComponents; c++ {
		m = append(m, layerMetric{Name: "engine.vcycle_share." + c.String(), Unit: "share", Moves: "vcycles_per_ginstr@compute_1t"})
	}
	registerLayer(layerDriver{Pkg: "engine", Home: "compute_1t", Share: 0.20, Metrics: m, Run: runEngineLayer})
}

// sweepScale is the size of the compute_1t program in the config sweeps: a
// sixteenth of the workload's, enough that translation is a rounding error.
const sweepScale = 2

// computeJob is compute_1t's program at the given scale under cfg.
func computeJob(cfg engine.Config, scale float64) (machineJob, error) {
	prog, spec, err := buildBlackscholes()
	if err != nil {
		return machineJob{}, err
	}
	return blackscholesJob(prog, cfg, spec.ItemsPerThread(1, scale)), nil
}

// mipsOf runs job for about budget and returns the median run's guest MIPS.
func mipsOf(job machineJob, budget time.Duration) (float64, error) {
	var mips []float64
	for more := rounds(budget, 1, anyNumber); more(); {
		s := runMachine(nil, 0, 0, job)
		if !s.ok {
			return 0, fmt.Errorf("%s", s.why)
		}
		mips = append(mips, float64(s.instrs)/s.wall.Seconds()/1e6)
	}
	return median(mips), nil
}

// sampleCheckpoint runs compute_1t's program briefly with checkpoints on and
// returns the last one captured.
func sampleCheckpoint() (*checkpoint.Snapshot, error) {
	cfg := engine.DefaultConfig("hst")
	cfg.CheckpointEvery = 2_000_000
	job, err := computeJob(cfg, 0.25)
	if err != nil {
		return nil, err
	}
	var snap *checkpoint.Snapshot
	verify := job.check
	job.check = func(m *engine.Machine) error {
		snap = m.LatestCheckpoint()
		return verify(m)
	}
	if s := runMachine(nil, 0, 0, job); !s.ok {
		return nil, fmt.Errorf("checkpointed run: %s", s.why)
	}
	if snap == nil {
		return nil, fmt.Errorf("no checkpoint captured")
	}
	return snap, nil
}

func runEngineLayer(env *layerEnv) (map[string]float64, error) {
	out := map[string]float64{}
	slice := env.budget / 10

	construct, err := timeEach(slice/2, 5, time.Microsecond, func() error {
		_, err := engine.NewMachine(engine.DefaultConfig("hst"))
		return err
	})
	if err != nil {
		return nil, err
	}
	out["engine.new_machine_us"] = median(construct)

	// Cold starts of never-seen images, traced: Run's self time and the
	// translation-cache counters of one image.
	tr := newTracer()
	var colds []float64
	var translations, lookups float64
	progs := genColdBatch(env.seed, -3)
	for i, more := 0, rounds(slice, 3, len(progs)); more(); i++ {
		im, err := gac.Compile(progs[i].Source)
		if err != nil {
			return nil, err
		}
		s := runMachine(tr, 0, 0, printJob(im, progs[i].Want))
		if !s.ok {
			return nil, fmt.Errorf("cold start: %s", s.why)
		}
		colds = append(colds, ms(s.wall))
		translations += float64(s.stats.TBTranslations)
		lookups += float64(s.stats.TBSharedLookups)
	}
	n := float64(len(colds))
	out["cold_start_ms"] = median(colds)
	out["engine.tb_translations"] = translations / n
	out["engine.tb_shared_lookups"] = lookups / n
	spans := tr.closed()
	self := selfTimes(spans)
	var runSelf []float64
	for _, s := range spans {
		if s.Name == "engine.Run" {
			runSelf = append(runSelf, ms(self[s.ID]))
		}
	}
	out["engine.run_self_ms"] = median(runSelf)

	// The compute_1t program under the three execution configurations, and
	// its virtual-cycle breakdown under the default one.
	sweeps := []struct {
		name string
		edit func(*engine.Config)
	}{
		{"engine.mips.ir", func(*engine.Config) {}},
		{"engine.mips.noopt", func(c *engine.Config) { c.NoOptimize = true }},
		{"engine.mips.tiered", func(c *engine.Config) { c.Tiered, c.ChainBudget, c.HotThreshold = true, 128, 16 }},
	}
	for _, sw := range sweeps {
		cfg := engine.DefaultConfig("hst")
		sw.edit(&cfg)
		job, err := computeJob(cfg, sweepScale)
		if err != nil {
			return nil, err
		}
		if out[sw.name], err = mipsOf(job, slice); err != nil {
			return nil, fmt.Errorf("%s: %w", sw.name, err)
		}
	}
	job, err := computeJob(engine.DefaultConfig("hst"), sweepScale)
	if err != nil {
		return nil, err
	}
	s := runMachine(nil, 0, 0, job)
	if !s.ok {
		return nil, fmt.Errorf("breakdown run: %s", s.why)
	}
	for c, share := range s.stats.Breakdown() {
		out["engine.vcycle_share."+stats.Component(c).String()] = share
	}

	// Stop-the-world sections of one atomic_2t iteration, scaled down.
	sb, err := buildStack()
	if err != nil {
		return nil, err
	}
	if s = runMachine(nil, 0, 0, stackJob(sb, engine.DefaultConfig("hst"), 2, layerStackPairs)); !s.ok {
		return nil, fmt.Errorf("stack run: %s", s.why)
	}
	out["engine.excl_sections"] = float64(s.stats.ExclSections)

	// The LL/SC counter loop with rule-based fusion on: fused updates are
	// host atomics, not SCs, so the rate is counted from the program itself.
	const fusedIters = 20000
	counter := genCounter(newRNG(env.seed, "fused", 0), fusedIters)
	cim, err := gac.Compile(counter.Source)
	if err != nil {
		return nil, err
	}
	fj := printJob(cim, counter.Want)
	fj.cfg.FuseAtomics = true
	var rates []float64
	for more := rounds(slice, 1, anyNumber); more(); {
		s := runMachine(nil, 0, 0, fj)
		if !s.ok {
			return nil, fmt.Errorf("fused counter: %s", s.why)
		}
		rates = append(rates, 2*fusedIters/s.wall.Seconds())
	}
	out["engine.sc_per_s.fused"] = median(rates)

	// Checkpoint capture: the same run with and without a cadence.
	plain, err := computeJob(engine.DefaultConfig("hst"), sweepScale/2)
	if err != nil {
		return nil, err
	}
	ckpt := plain
	ckpt.cfg.CheckpointEvery = 2_000_000
	var with, without []float64
	var captures float64
	for more := rounds(2*slice, 1, anyNumber); more(); {
		a, b := runMachine(nil, 0, 0, plain), runMachine(nil, 0, 0, ckpt)
		if !a.ok || !b.ok {
			return nil, fmt.Errorf("checkpoint run: %s%s", a.why, b.why)
		}
		without = append(without, us(a.wall))
		with = append(with, us(b.wall))
		captures = float64(b.stats.Checkpoints)
	}
	if captures == 0 {
		return nil, fmt.Errorf("checkpoint run captured nothing")
	}
	out["engine.checkpoint_capture_us"] = (median(with) - median(without)) / captures

	snap, err := sampleCheckpoint()
	if err != nil {
		return nil, err
	}
	stopped, cancel := context.WithCancel(context.Background())
	cancel()
	var resume []float64
	for more := rounds(slice, 3, anyNumber); more(); {
		t := time.Now()
		m, err := engine.ResumeFromSnapshot(engine.DefaultConfig("hst"), snap)
		resume = append(resume, us(time.Since(t)))
		if err != nil {
			return nil, err
		}
		_ = m.RunContext(stopped) // stops the resumed vCPUs; the cancellation is the error it returns
	}
	out["engine.resume_from_snapshot_us"] = median(resume)
	return out, nil
}
