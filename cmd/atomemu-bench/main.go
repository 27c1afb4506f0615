// Command atomemu-bench regenerates every table and figure of the paper's
// evaluation section:
//
//	atomemu-bench fig10        scalability of the software schemes
//	atomemu-bench fig11        scalability of the HTM schemes
//	atomemu-bench fig12        execution-time breakdowns
//	atomemu-bench table1       per-program instruction census
//	atomemu-bench table2       scheme summary matrix (measured)
//	atomemu-bench correctness  lock-free stack ABA audit (§IV-A)
//	atomemu-bench litmus       Seq1–Seq4 atomicity matrix (§IV-A)
//	atomemu-bench contention   host-side SC/TB-dispatch throughput sweep
//	atomemu-bench resilience   HTM schemes at livelock scale, strict vs resilient
//	atomemu-bench trace        contended HST stack run with the event tracer
//	                           on; -out DIR also writes Chrome trace JSON
//	atomemu-bench soak         multi-tenant daemon soak: concurrent clients,
//	                           fault injection, breaker/shed/drain accounting
//	atomemu-bench adversary    seed-driven adversarial interleaving search over
//	                           the lock-free workloads; -out DIR writes the run
//	                           CSV and minimized repros; exits nonzero on any
//	                           unexpected oracle violation
//	atomemu-bench crashsoak    durability proof: SIGKILL a durable child daemon
//	                           mid-burst -crash-cycles times over one data dir;
//	                           exits nonzero if any job is lost, any idempotent
//	                           submit duplicates, or any output diverges from an
//	                           uninterrupted reference (not part of "all")
//	atomemu-bench fabricsoak   multi-node failover proof: an in-process router
//	                           over -fabric-workers worker daemons, one daemon
//	                           SIGKILLed once a checkpoint is cached for its
//	                           in-flight work; exits nonzero unless 0 jobs are
//	                           lost, 0 duplicated, ≥1 checkpoint-resumed and
//	                           every output matches an uninterrupted reference
//	                           (not part of "all")
//	atomemu-bench warmstart    cross-job reuse latency: cold vs publish vs
//	                           shared-store hit for one image; -out DIR
//	                           writes BENCH_warmstart.json; exits nonzero if
//	                           the first job caches anything or the compile
//	                           cache or the shared store never hits
//	atomemu-bench all          everything above except crashsoak and fabricsoak
//
// Text renders to stdout; with -out DIR each experiment also writes a CSV.
// Seed-driven experiments (adversary, soak, resilience) share the single
// -seed flag and record it in their CSV headers ("# seed=N") so any row
// can be replayed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"atomemu/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "atomemu-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	// crashsoak and fabricsoak re-execute this binary as a worker daemon;
	// that child mode has its own flags and must be routed before the bench
	// FlagSet sees them.
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:])
	}
	fs := flag.NewFlagSet("atomemu-bench", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.25, "work scale factor (1.0 = full-size runs)")
	threadsFlag := fs.String("threads", "", "comma-separated thread counts (default: per-figure sweep)")
	outDir := fs.String("out", "", "directory for CSV output (omit to skip CSVs)")
	jsonPath := fs.String("json", "", "path for the contention JSON report (contention/all only)")
	quiet := fs.Bool("q", false, "suppress per-run progress lines")
	stackOps := fs.Uint64("stack-ops", 1048575, "total stack operations for the correctness run")
	stackThreads := fs.Int("stack-threads", 16, "threads for the correctness run")
	stackNodes := fs.Uint("stack-nodes", 64, "stack nodes for the correctness run")
	attempts := fs.Int("attempts", 6, "PICO-CAS retry attempts for the correctness run")
	soakClients := fs.Int("soak-clients", 8, "concurrent clients for the soak run")
	soakJobs := fs.Int("soak-jobs", 12, "jobs per client for the soak run")
	soakWorkers := fs.Int("soak-workers", 4, "daemon workers for the soak run")
	soakQueue := fs.Int("soak-queue", 4, "daemon queue depth for the soak run")
	seed := fs.Uint64("seed", 1, "experiment seed (adversary, soak, resilience); recorded in CSV headers")
	crashCycles := fs.Int("crash-cycles", 3, "SIGKILL cycles for the crashsoak run")
	crashJobs := fs.Int("crash-jobs", 6, "keyed jobs for the crashsoak run")
	fabricFleet := fs.Int("fabric-workers", 3, "worker daemons for the fabricsoak run")
	fabricJobs := fs.Int("fabric-jobs", 8, "keyed jobs for the fabricsoak run")
	warmStmts := fs.Int("warm-stmts", 3000, "straight-line statements for the warmstart image")
	warmRepeats := fs.Int("warm-repeats", 3, "repeat submissions in warmstart's hit mode (best-of)")
	advRuns := fs.Int("runs", 40, "scenario budget for the adversary search")
	advMaxSteps := fs.Uint64("max-steps", 0, "per-scenario step budget for the adversary search (0 = default)")
	advTargets := fs.String("targets", "", "comma-separated workload targets for the adversary search (default: all)")
	advFree := fs.Bool("free", false, "let the adversary search explore free-running mode too")
	require := fs.String("require", "", "fail the adversary search unless a property held (strict-livelock)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: atomemu-bench [flags] {fig10|fig11|fig12|table1|table2|correctness|litmus|contention|resilience|trace|soak|adversary|crashsoak|fabricsoak|warmstart|all}")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("an experiment name is expected")
	}
	cmd := fs.Arg(0)
	// Accept flags after the experiment name too ("bench correctness -out d").
	if fs.NArg() > 1 {
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return err
		}
		if fs.NArg() != 0 {
			fs.Usage()
			return fmt.Errorf("unexpected arguments %v", fs.Args())
		}
	}

	threads, err := parseThreads(*threadsFlag)
	if err != nil {
		return err
	}
	progress := harness.Progress(nil)
	if !*quiet {
		progress = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}
	saveCSV := func(name string, render func(io.Writer)) error {
		if *outDir == "" {
			return nil
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*outDir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		render(f)
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		return nil
	}

	experiments := map[string]func() error{
		"fig10": func() error {
			fig, err := harness.RunScalability(harness.Fig10Title, harness.Fig10Schemes(), harness.Fig10Threads(), *scale, threads, progress)
			if err != nil {
				return err
			}
			fig.Render(os.Stdout)
			fig.RenderSummary(os.Stdout)
			return saveCSV("fig10.csv", fig.CSV)
		},
		"fig11": func() error {
			fig, err := harness.RunScalability(harness.Fig11Title, harness.Fig11Schemes(), harness.Fig11Threads(), *scale, threads, progress)
			if err != nil {
				return err
			}
			fig.Render(os.Stdout)
			return saveCSV("fig11.csv", fig.CSV)
		},
		"fig12": func() error {
			fig, err := harness.RunFig12(*scale, threads, progress)
			if err != nil {
				return err
			}
			fig.Render(os.Stdout)
			return saveCSV("fig12.csv", fig.CSV)
		},
		"table1": func() error {
			tab, err := harness.RunTableI(*scale, 16, progress)
			if err != nil {
				return err
			}
			tab.Render(os.Stdout)
			return saveCSV("table1.csv", tab.CSV)
		},
		"table2": func() error {
			tab, err := harness.RunTableII(*scale, 16, progress)
			if err != nil {
				return err
			}
			tab.Render(os.Stdout)
			return saveCSV("table2.csv", tab.CSV)
		},
		"correctness": func() error {
			c, err := harness.RunCorrectness(*stackThreads, *stackOps, uint32(*stackNodes), *attempts, progress)
			if err != nil {
				return err
			}
			c.Render(os.Stdout)
			return saveCSV("correctness.csv", c.CSV)
		},
		"litmus": func() error {
			return harness.LitmusMatrix(os.Stdout)
		},
		"contention": func() error {
			c, err := runContention(*scale, threads, progress)
			if err != nil {
				return err
			}
			c.Render(os.Stdout)
			if *jsonPath != "" {
				if err := os.MkdirAll(filepath.Dir(*jsonPath), 0o755); err != nil {
					return err
				}
				f, err := os.Create(*jsonPath)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := c.JSON(f); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
			}
			return saveCSV("contention.csv", c.CSV)
		},
		"resilience": func() error {
			r, err := harness.RunResilience(*stackThreads, *stackOps, uint32(*stackNodes), *seed, progress)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			return saveCSV("resilience.csv", r.CSV)
		},
		"trace": func() error {
			tr, err := harness.RunTrace(8, 1<<14, uint32(*stackNodes), progress)
			if err != nil {
				return err
			}
			tr.Render(os.Stdout)
			return saveCSV("trace.json", tr.Chrome)
		},
		"soak": func() error {
			r, err := harness.RunSoak(harness.SoakOptions{
				Clients: *soakClients, JobsPerClient: *soakJobs,
				Workers: *soakWorkers, QueueDepth: *soakQueue, Seed: int64(*seed),
			}, progress)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			return saveCSV("soak.csv", r.CSV)
		},
		"crashsoak": func() error {
			return runCrashsoak(crashsoakConfig{
				Cycles:  *crashCycles,
				Jobs:    *crashJobs,
				Workers: *soakWorkers,
				Queue:   *soakQueue,
				Scale:   *scale,
				OutDir:  *outDir,
				Quiet:   *quiet,
			})
		},
		"fabricsoak": func() error {
			return runFabricsoak(fabricsoakConfig{
				Fleet:   *fabricFleet,
				Jobs:    *fabricJobs,
				Workers: *soakWorkers,
				Queue:   *soakQueue,
				Scale:   *scale,
				OutDir:  *outDir,
				Quiet:   *quiet,
			})
		},
		"warmstart": func() error {
			return runWarmstart(warmstartConfig{
				Stmts:   *warmStmts,
				Repeats: *warmRepeats,
				OutDir:  *outDir,
				Quiet:   *quiet,
			})
		},
		"adversary": func() error {
			return runAdversary(advConfig{
				Seed:        *seed,
				Runs:        *advRuns,
				MaxSteps:    *advMaxSteps,
				Targets:     splitList(*advTargets),
				IncludeFree: *advFree,
				OutDir:      *outDir,
				Require:     *require,
				Quiet:       *quiet,
			})
		},
	}

	if cmd == "all" {
		for _, name := range []string{"litmus", "correctness", "table1", "fig10", "fig11", "fig12", "table2", "contention", "warmstart", "resilience", "trace", "soak", "adversary"} {
			fmt.Printf("\n===== %s =====\n", name)
			if err := experiments[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	exp, ok := experiments[cmd]
	if !ok {
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", cmd)
	}
	return exp()
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseThreads(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
