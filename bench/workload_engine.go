package main

import (
	"fmt"
	"slices"
	"time"

	"atomemu/internal/asm"
	"atomemu/internal/engine"
	"atomemu/internal/gac"
	"atomemu/internal/guestlib"
	"atomemu/internal/workload"
)

const imageOrg = 0x10000

// machineJob is one guest run on a fresh machine: the image, how to start
// its threads and how to check the result against the oracle.
type machineJob struct {
	cfg   engine.Config
	image *asm.Image
	start func(m *engine.Machine) error
	check func(m *engine.Machine) error
}

// runMachine builds a machine, runs the job to completion and checks it,
// with a span around each call into the engine. The sample's wall time runs
// from NewMachine to Run returning; reading the counters and the oracle are
// spanned but not timed.
func runMachine(tr *tracer, parent, lane int, job machineJob) opSample {
	var s opSample
	fail := func(stage string, err error) opSample {
		s.why = fmt.Sprintf("%s: %v", stage, err)
		return s
	}
	t0 := time.Now()
	id := tr.begin(parent, lane, "engine.NewMachine")
	m, err := engine.NewMachine(job.cfg)
	tr.end(id)
	if err != nil {
		return fail("NewMachine", err)
	}
	id = tr.begin(parent, lane, "engine.LoadImage")
	err = m.LoadImage(job.image)
	tr.end(id)
	if err != nil {
		return fail("LoadImage", err)
	}
	id = tr.begin(parent, lane, "engine.SpawnThread")
	err = job.start(m)
	tr.end(id)
	if err != nil {
		return fail("start", err)
	}
	id = tr.begin(parent, lane, "engine.Run")
	err = m.Run()
	tr.end(id)
	s.wall = time.Since(t0)
	if err != nil {
		return fail("Run", err)
	}
	id = tr.begin(parent, lane, "engine.AggregateStats")
	st := m.AggregateStats()
	tr.end(id)
	s.stats = st
	s.instrs, s.scOK, s.vcycles = st.GuestInstrs, st.SCs-st.SCFails, st.TotalCycles()
	id = tr.begin(parent, lane, "verify")
	err = job.check(m)
	tr.end(id)
	if err != nil {
		return fail("verify", err)
	}
	s.ok = true
	return s
}

// computeItemsJitter spreads compute_1t's item count over the seeds (by
// under half a percent) so that a seed is a different input there too.
const computeItemsJitter = 4096

// smokeDivisor sizes the short run that ends an engine workload's set-up, as
// a fraction of one timed iteration: the program is built, loaded
// into a machine and checked against its oracle once before the window
// opens, so setup_s covers everything up to the first timed instruction.
const smokeDivisor = 128

// blackscholesJob runs items work items of the built program on one vCPU
// under cfg, checked by the program's own invariant.
func blackscholesJob(prog *workload.Program, cfg engine.Config, items int) machineJob {
	return machineJob{
		cfg:   cfg,
		image: prog.Image,
		start: func(m *engine.Machine) error {
			_, err := m.SpawnThread(prog.Worker, uint32(items))
			return err
		},
		check: func(m *engine.Machine) error { return prog.Verify(m.Mem(), 1, items) },
	}
}

func buildBlackscholes() (*workload.Program, workload.Spec, error) {
	spec, ok := workload.SpecByName("blackscholes")
	if !ok {
		return nil, spec, fmt.Errorf("workload: no blackscholes spec")
	}
	prog, err := spec.Build(imageOrg)
	return prog, spec, err
}

// loopJob is the timed window of a workload whose every iteration is the
// same machine job.
func (env *runEnv) loopJob(o *outcome, job machineJob) {
	env.serialLoop(o, func(env *runEnv, i int) []opSample {
		root := env.tr.begin(0, 0, "iteration")
		defer env.tr.end(root)
		return []opSample{runMachine(env.tr, root, 0, job)}
	})
}

// smoke runs job once, untimed by the caller's metrics, as the last step of
// a set-up.
func smoke(job machineJob) error {
	if s := runMachine(nil, 0, 0, job); !s.ok {
		return fmt.Errorf("smoke run: %s", s.why)
	}
	return nil
}

func runCompute1T(env *runEnv) (*outcome, error) {
	o := &outcome{}
	var prog *workload.Program
	var spec workload.Spec
	cfg := engine.DefaultConfig("hst")
	if err := o.timeSetup(env, func() (err error) {
		if prog, spec, err = buildBlackscholes(); err != nil {
			return err
		}
		return smoke(blackscholesJob(prog, cfg, spec.ItemsPerThread(1, 32)/smokeDivisor))
	}, nil); err != nil {
		return nil, err
	}
	items := spec.ItemsPerThread(1, 32) + newRNG(env.seed, "compute", 0).intn(computeItemsJitter)
	job := blackscholesJob(prog, cfg, items)
	env.loopJob(o, job)
	return o, nil
}

const (
	stackNodes = 64
	stackPairs = 1_000_000
)

// stackJob is the paper's §IV-A experiment: threads workers share pairs
// pop+push pairs on a lock-free stack of stackNodes nodes.
func stackJob(sb *guestlib.StackBench, cfg engine.Config, threads int, pairs uint32) machineJob {
	return machineJob{
		cfg:   cfg,
		image: sb.Image,
		start: func(m *engine.Machine) error {
			if err := sb.InitStack(m.Mem()); err != nil {
				return err
			}
			for t := 0; t < threads; t++ {
				if _, err := m.SpawnThread(sb.Worker, pairs/uint32(threads)); err != nil {
					return err
				}
			}
			return nil
		},
		check: func(m *engine.Machine) error {
			for _, c := range m.CPUs() {
				if c.ExitCode() != 0 {
					return fmt.Errorf("worker %d exited %d (stack lost every node)", c.TID(), c.ExitCode())
				}
			}
			rep, err := sb.CheckStack(m.Mem())
			if err != nil {
				return err
			}
			if rep.Corrupted() {
				return fmt.Errorf("stack corrupt: %s", rep)
			}
			return nil
		},
	}
}

func runAtomic2T(env *runEnv) (*outcome, error) {
	o := &outcome{}
	var sb *guestlib.StackBench
	cfg := engine.DefaultConfig("hst")
	if err := o.timeSetup(env, func() (err error) {
		if sb, err = guestlib.BuildStackBench(imageOrg, stackNodes); err != nil {
			return err
		}
		return smoke(stackJob(sb, cfg, 2, stackPairs/smokeDivisor))
	}, nil); err != nil {
		return nil, err
	}
	job := stackJob(sb, cfg, 2, stackPairs)
	env.loopJob(o, job)
	return o, nil
}

// printJob runs a generated program on one vCPU and checks its print output
// against the generator's oracle.
func printJob(im *asm.Image, want []uint32) machineJob {
	return machineJob{
		cfg:   engine.DefaultConfig("hst"),
		image: im,
		start: func(m *engine.Machine) error {
			_, err := m.Start(im.Entry, 0)
			return err
		},
		check: func(m *engine.Machine) error {
			if got := m.Output(); !slices.Equal(got, want) {
				return fmt.Errorf("printed %v, want %v", got, want)
			}
			return nil
		},
	}
}

// compileBatch compiles a batch of generated programs, one span each.
func compileBatch(tr *tracer, parent int, progs []guestProg) ([]*asm.Image, error) {
	out := make([]*asm.Image, len(progs))
	for i, p := range progs {
		id := tr.begin(parent, 0, "gac.Compile")
		im, err := gac.Compile(p.Source)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("generated program does not compile: %w", err)
		}
		out[i] = im
	}
	return out, nil
}

func runColdTranslate(env *runEnv) (*outcome, error) {
	// The virtual-cycle ratio is taken over the first batch only: every run
	// of a seed executes it, however many more the host's speed allows.
	o := &outcome{ratioOps: coldImagesPerIter}
	// Set-up is what a batch costs before its first cold start: generating
	// and compiling its images. The timed window then does the same for each
	// further batch, untimed, and times only the cold starts.
	if err := o.timeSetup(env, func() error {
		_, err := compileBatch(nil, 0, genColdBatch(env.seed, -2))
		return err
	}, nil); err != nil {
		return nil, err
	}
	env.serialLoop(o, func(env *runEnv, i int) []opSample {
		root := env.tr.begin(0, 0, "iteration")
		defer env.tr.end(root)
		id := env.tr.begin(root, 0, "bench.generate")
		progs := genColdBatch(env.seed, i)
		env.tr.end(id)
		images, err := compileBatch(env.tr, root, progs)
		if err != nil {
			return []opSample{{why: err.Error()}}
		}
		out := make([]opSample, len(progs))
		for k, im := range images {
			op := env.tr.begin(root, 0, "cold_start")
			out[k] = runMachine(env.tr, op, 0, printJob(im, progs[k].Want))
			env.tr.end(op)
		}
		return out
	})
	return o, nil
}
