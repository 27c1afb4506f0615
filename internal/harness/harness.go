// Package harness drives the paper's experiments: it runs (program, scheme,
// thread-count) matrices over the miniparsec suite and the lock-free-stack
// micro-benchmark, collects virtual-time and profiling data, and renders
// each of the paper's tables and figures (Fig. 10–12, Table I–II, the §IV-A
// correctness experiment) as aligned text and CSV.
package harness

import (
	"errors"
	"fmt"
	"time"

	"atomemu/internal/core"
	"atomemu/internal/engine"
	"atomemu/internal/guestlib"
	"atomemu/internal/stats"
	"atomemu/internal/workload"
)

// RunConfig describes one workload execution.
type RunConfig struct {
	Program string  // miniparsec program name
	Scheme  string  // emulation scheme name
	Threads int     // worker count
	Scale   float64 // work scale factor (1.0 = full Table-sized run)
	// ProfileCollisions enables the HST hash-collision census.
	ProfileCollisions bool
}

// RunResult is the outcome of one workload execution.
type RunResult struct {
	Program string
	Scheme  string
	Threads int
	// VirtualTime is the run's execution time in model cycles (max over
	// vCPU clocks) — the quantity the paper's figures plot.
	VirtualTime uint64
	// WallTime is the host-side duration, for harness bookkeeping only.
	WallTime time.Duration
	// Stats aggregates all vCPU counters.
	Stats stats.CPU
	// Crashed is set when the scheme failed (e.g. PICO-HTM livelock); the
	// paper reports such runs as crashes, not data points.
	Crashed bool
	// CrashReason holds the failure text when Crashed.
	CrashReason string
}

// RunWorkload executes one miniparsec program under one scheme and checks
// the program's invariant. Scheme-level failures (livelock) are reported in
// the result; infrastructure errors are returned.
func RunWorkload(cfg RunConfig) (*RunResult, error) {
	spec, ok := workload.SpecByName(cfg.Program)
	if !ok {
		return nil, fmt.Errorf("harness: unknown program %q", cfg.Program)
	}
	if cfg.Threads < 1 || cfg.Threads > workload.MaxThreads {
		return nil, fmt.Errorf("harness: thread count %d out of range", cfg.Threads)
	}
	prog, err := spec.Build(0x10000)
	if err != nil {
		return nil, err
	}
	ecfg := engine.DefaultConfig(cfg.Scheme)
	ecfg.MaxGuestInstrs = 4_000_000_000
	ecfg.ProfileCollisions = cfg.ProfileCollisions
	// Paper-fidelity runs: HTM livelock crashes (Fig. 11's missing data
	// points) instead of falling back to hst.
	ecfg.StrictPaper = true
	m, err := engine.NewMachine(ecfg)
	if err != nil {
		return nil, err
	}
	if err := m.LoadImage(prog.Image); err != nil {
		return nil, err
	}
	items := spec.ItemsPerThread(cfg.Threads, cfg.Scale)
	if spec.BarrierEvery > 0 {
		m.InitBarrier(prog.BarrierCell, cfg.Threads)
	}
	start := time.Now()
	if err := spawnWorkers(m, cfg.Threads, prog.Worker, uint32(items)); err != nil {
		return nil, err
	}
	runErr := m.Run()
	res := &RunResult{
		Program:     cfg.Program,
		Scheme:      cfg.Scheme,
		Threads:     cfg.Threads,
		VirtualTime: m.VirtualTime(),
		WallTime:    time.Since(start),
		Stats:       m.AggregateStats(),
	}
	if runErr != nil {
		if isSchemeCrash(runErr) {
			res.Crashed = true
			res.CrashReason = runErr.Error()
			return res, nil
		}
		return nil, fmt.Errorf("harness: %s under %s with %d threads: %w",
			cfg.Program, cfg.Scheme, cfg.Threads, runErr)
	}
	if err := prog.Verify(m.Mem(), cfg.Threads, items); err != nil {
		return nil, err
	}
	return res, nil
}

// spawnWorkers spawns n vCPUs at entry with arg; they start when Run
// takes the machine.
func spawnWorkers(m *engine.Machine, n int, entry, arg uint32) error {
	for i := 0; i < n; i++ {
		if _, err := m.SpawnThread(entry, arg); err != nil {
			return err
		}
	}
	return nil
}

// isSchemeCrash reports whether err is a scheme-level failure (livelock
// EmulationError or a watchdog trip) — reported as a crashed run, like the
// paper's crashed QEMU — rather than an infrastructure error.
func isSchemeCrash(err error) bool {
	var ee *core.EmulationError
	var we *core.WatchdogError
	return errors.As(err, &ee) || errors.As(err, &we)
}

// StackRun is the §IV-A correctness experiment result for one scheme.
type StackRun struct {
	Scheme string
	// EndScheme is the scheme the machine finished on: Scheme, or hst
	// after a demotion.
	EndScheme string
	// Threads is the worker count actually used (PICO-HTM is capped at 8,
	// the paper's own limit before it livelocks).
	Threads int
	// Ops is the total pop+push pairs executed.
	Ops uint64
	// Report is the post-run stack audit.
	Report guestlib.StackReport
	// CorruptPct is the fraction of nodes damaged or missing, in percent
	// (the paper reports ~4% for QEMU-4.1 / PICO-CAS, 0 for all others).
	CorruptPct float64
	// Crashed is set when the guest detected total loss (all nodes gone)
	// or the scheme failed.
	Crashed bool
	Reason  string
	// VirtualTime is the run's execution time in model cycles.
	VirtualTime uint64
	// Stats aggregates all vCPU counters (retries, fallbacks, …).
	Stats stats.CPU
}

// RunStack executes the lock-free-stack correctness experiment: threads
// workers, totalOps pop+push pairs in all (the paper uses 16 threads and
// 1,048,575 operations), nodes stack entries. It runs in StrictPaper mode
// so the paper's crash behavior reproduces; see RunResilience for the
// falling-back-but-completing counterpart.
func RunStack(scheme string, threads int, totalOps uint64, nodes uint32) (*StackRun, error) {
	cfg := engine.DefaultConfig(scheme)
	cfg.MaxGuestInstrs = 4_000_000_000
	cfg.StrictPaper = true
	return runStack(cfg, threads, totalOps, nodes)
}

// runStack executes the stack experiment under an explicit engine config.
func runStack(cfg engine.Config, threads int, totalOps uint64, nodes uint32) (*StackRun, error) {
	sb, err := guestlib.BuildStackBench(0x10000, nodes)
	if err != nil {
		return nil, err
	}
	m, err := engine.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.LoadImage(sb.Image); err != nil {
		return nil, err
	}
	if err := sb.InitStack(m.Mem()); err != nil {
		return nil, err
	}
	per := totalOps / uint64(threads)
	if per == 0 {
		per = 1
	}
	if err := spawnWorkers(m, threads, sb.Worker, uint32(per)); err != nil {
		return nil, err
	}
	runErr := m.Run()
	out := &StackRun{
		Scheme:      cfg.Scheme,
		EndScheme:   m.Scheme().Name(),
		Threads:     threads,
		Ops:         per * uint64(threads),
		VirtualTime: m.VirtualTime(),
		Stats:       m.AggregateStats(),
	}
	if runErr != nil {
		if isSchemeCrash(runErr) {
			out.Crashed = true
			out.Reason = runErr.Error()
			return out, nil
		}
		return nil, runErr
	}
	// A worker that bailed with exit code 2 saw a permanently empty stack:
	// the guest-visible crash.
	for _, c := range m.CPUs() {
		if c.ExitCode() == 2 {
			out.Crashed = true
			out.Reason = "stack permanently empty (all nodes lost)"
		}
	}
	rep, err := sb.CheckStack(m.Mem())
	if err != nil {
		return nil, err
	}
	out.Report = rep
	// The paper's metric: the fraction of entries with a self-pointing
	// next. When the damage shows up differently (nodes lost to a cycle or
	// leaked entirely), fall back to the missing fraction.
	damaged := uint64(rep.SelfLoops)
	if damaged == 0 && (rep.Cycles || rep.Missing > 0) {
		damaged = uint64(rep.Missing)
		if damaged == 0 {
			damaged = 1
		}
	}
	out.CorruptPct = 100 * float64(damaged) / float64(nodes)
	return out, nil
}

// Speedup computes a/b as a float, tolerating zero.
func Speedup(base, v uint64) float64 {
	if v == 0 {
		return 0
	}
	return float64(base) / float64(v)
}
