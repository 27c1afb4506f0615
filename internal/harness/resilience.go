package harness

import (
	"fmt"
	"io"

	"atomemu/internal/engine"
	"atomemu/internal/faultinject"
)

// ResilienceRow is one (scheme, mode) run of the lock-free-stack bench.
type ResilienceRow struct {
	Scheme string
	// Mode is the row's policy:
	//	strict     the paper's: HTM livelock crashes the run
	//	resilient  the default: back off, fall back to hst, complete
	//	recovery   resilient with checkpointing on and an injected mid-run
	//	           store fault, rolled back to the last cut and completed
	//	baseline   plain hst, what a full fallback costs
	Mode        string
	Threads     int
	Crashed     bool
	Reason      string
	CorruptPct  float64
	VirtualTime uint64
	// EndScheme is the scheme the machine finished on (hst after a
	// demotion).
	EndScheme string
	// Resilience counters (all zero in strict mode by construction).
	Retries       uint64
	BackoffWaits  uint64
	Fallbacks     uint64
	WatchdogTrips uint64
	// Checkpoint/rollback counters (recovery mode only).
	Checkpoints uint64
	Restores    uint64
}

// Resilience is the robustness experiment: the HTM schemes driven through
// the §IV-A lock-free stack at a thread count where PICO-HTM livelocks,
// under the paper's strict policy (reproducing the crash), under the
// default resilient policy (falling back to hst but completing with a
// correct final stack) and with a rollback on top, beside a plain hst run
// of the same stack.
type Resilience struct {
	Threads int
	Ops     uint64
	Nodes   uint32
	// Seed is the backoff-jitter seed threaded into every run's
	// Config.ResilienceSeed, recorded so a CSV row can be replayed.
	Seed uint64
	Rows []ResilienceRow
}

// ResilienceSchemes are the HTM-backed schemes the resilience layer covers.
func ResilienceSchemes() []string { return []string{"pico-htm", "hst-htm"} }

// RunResilience executes the experiment. threads <= 0 defaults to 16 (the
// paper's stack experiment size, beyond PICO-HTM's 8-thread livelock
// limit); totalOps <= 0 defaults to 1<<16 pairs; nodes <= 0 to 4096.
// seed drives the deterministic backoff jitter (Config.ResilienceSeed).
func RunResilience(threads int, totalOps uint64, nodes uint32, seed uint64, progress Progress) (*Resilience, error) {
	if progress == nil {
		progress = noProgress
	}
	if threads <= 0 {
		threads = 16
	}
	if totalOps == 0 {
		totalOps = 1 << 16
	}
	if nodes == 0 {
		nodes = 4096
	}
	exp := &Resilience{Threads: threads, Ops: totalOps, Nodes: nodes, Seed: seed}
	type variant struct{ scheme, mode string }
	var variants []variant
	for _, scheme := range ResilienceSchemes() {
		for _, mode := range []string{"strict", "resilient", "recovery"} {
			variants = append(variants, variant{scheme, mode})
		}
	}
	variants = append(variants, variant{"hst", "baseline"})
	pairs := (totalOps / uint64(threads)) * uint64(threads)
	for _, v := range variants {
		cfg := engine.DefaultConfig(v.scheme)
		cfg.MaxGuestInstrs = 4_000_000_000
		cfg.StrictPaper = v.mode == "strict"
		cfg.ResilienceSeed = seed
		if v.mode == "recovery" {
			// Each push/pop pair performs ~2 guest stores and ~450 virtual
			// cycles, so a fault after `pairs` stores lands mid-run and the
			// checkpoint cadence of pairs*10 cycles guarantees several cuts
			// before it fires.
			cfg.CheckpointEvery = pairs * 10
			cfg.FaultInjector = faultinject.New(faultinject.Rule{
				Op:     faultinject.OpMemStore,
				Action: faultinject.ActFault,
				After:  pairs,
				Count:  1,
			})
		}
		run, err := runStack(cfg, threads, totalOps, nodes)
		if err != nil {
			return nil, fmt.Errorf("harness: resilience %s %s: %w", v.scheme, v.mode, err)
		}
		row := ResilienceRow{
			Scheme:        v.scheme,
			Mode:          v.mode,
			Threads:       threads,
			Crashed:       run.Crashed,
			Reason:        run.Reason,
			CorruptPct:    run.CorruptPct,
			VirtualTime:   run.VirtualTime,
			EndScheme:     run.EndScheme,
			Retries:       run.Stats.HTMRetries,
			BackoffWaits:  run.Stats.HTMBackoffWaits,
			Fallbacks:     run.Stats.SchemeFallbacks,
			WatchdogTrips: run.Stats.WatchdogTrips,
			Checkpoints:   run.Stats.Checkpoints,
			Restores:      run.Stats.RecoveryRestores,
		}
		if row.Crashed {
			progress("%-9s %-9s t=%-3d CRASH: %s", v.scheme, v.mode, threads, row.Reason)
		} else {
			progress("%-9s %-9s t=%-3d vt=%-12d retries=%d fallbacks=%d restores=%d corrupt=%.2f%% end=%s",
				v.scheme, v.mode, threads, row.VirtualTime, row.Retries, row.Fallbacks, row.Restores, row.CorruptPct, row.EndScheme)
		}
		exp.Rows = append(exp.Rows, row)
	}
	return exp, nil
}

// Render writes the experiment as an aligned table.
func (exp *Resilience) Render(w io.Writer) {
	fmt.Fprintf(w, "Resilience — lock-free stack, %d threads, %d op pairs, %d nodes\n",
		exp.Threads, exp.Ops, exp.Nodes)
	fmt.Fprintf(w, "(strict = paper policy: HTM livelock aborts the run; resilient = default: fall back to hst and complete;\n")
	fmt.Fprintf(w, " recovery = resilient + checkpointing with an injected mid-run fault, rolled back and completed;\n")
	fmt.Fprintf(w, " baseline = plain hst on the same stack)\n\n")
	fmt.Fprintf(w, "  %-9s %-9s %-8s %10s %10s %10s %8s %8s %9s %-9s  %s\n",
		"scheme", "mode", "outcome", "retries", "backoffs", "fallbacks", "ckpts", "restores", "corrupt%", "end", "detail")
	for _, r := range exp.Rows {
		outcome := "ok"
		detail := fmt.Sprintf("vt=%d", r.VirtualTime)
		if r.Crashed {
			outcome = "crash"
			detail = r.Reason
		}
		fmt.Fprintf(w, "  %-9s %-9s %-8s %10d %10d %10d %8d %8d %9.2f %-9s  %s\n",
			r.Scheme, r.Mode, outcome, r.Retries, r.BackoffWaits, r.Fallbacks,
			r.Checkpoints, r.Restores, r.CorruptPct, r.EndScheme, detail)
	}
}

// CSV writes rows: scheme,mode,threads,crashed,retries,backoff_waits,fallbacks,watchdog_trips,checkpoints,restores,corrupt_pct,virtual_time,end_scheme.
func (exp *Resilience) CSV(w io.Writer) {
	fmt.Fprintf(w, "# seed=%d\n", exp.Seed)
	fmt.Fprintln(w, "scheme,mode,threads,crashed,retries,backoff_waits,fallbacks,watchdog_trips,checkpoints,restores,corrupt_pct,virtual_time,end_scheme")
	for _, r := range exp.Rows {
		fmt.Fprintf(w, "%s,%s,%d,%v,%d,%d,%d,%d,%d,%d,%.4f,%d,%s\n",
			r.Scheme, r.Mode, r.Threads, r.Crashed, r.Retries, r.BackoffWaits,
			r.Fallbacks, r.WatchdogTrips, r.Checkpoints, r.Restores, r.CorruptPct, r.VirtualTime, r.EndScheme)
	}
}
