// Command atomemu runs guest programs under a chosen atomic-instruction
// emulation scheme:
//
//	atomemu -image prog.ga32 [-scheme hst] [-threads 1]
//	    run an assembled image (one worker thread per -threads at entry)
//	atomemu -gac prog.gac [-scheme hst] [-threads 1]
//	    compile a GAC source file and run it
//	atomemu -program fluidanimate [-scheme hst] [-threads 8] [-scale 0.25]
//	    run a miniparsec workload
//	atomemu -stack [-scheme pico-cas] [-threads 16] [-ops 1048575]
//	    run the §IV-A lock-free-stack ABA experiment
//
// With -trace-instrs an -image or -gac run single-steps its threads
// round-robin and logs each guest instruction to stderr before it runs.
//
// On exit it prints guest output, the instruction census and the
// virtual-time total.
//
// Exit codes: 0 success; 2 guest deadlock; 3 emulation fault or watchdog
// trip; 4 recovery attempts exhausted; 1 any other error.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"atomemu/internal/arch"
	"atomemu/internal/asm"
	"atomemu/internal/core"
	"atomemu/internal/engine"
	"atomemu/internal/gac"
	"atomemu/internal/harness"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
	"atomemu/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "atomemu:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps machine failures to distinct process exit codes so scripts
// can tell a guest deadlock from a scheme fault from exhausted recovery.
// The classification lives in engine.ClassifyStop, shared with the job
// daemon so the two cannot drift; errors from outside the engine (bad
// flags, unreadable files) classify as StopError = 1.
func exitCode(err error) int {
	if c := engine.ClassifyStop(err); c != engine.StopOK {
		return c.ExitCode()
	}
	return 1
}

func run() error {
	scheme := flag.String("scheme", "hst", "emulation scheme ("+strings.Join(core.SchemeNames(), " ")+")")
	image := flag.String("image", "", "assembled GA32 image to run")
	gacFile := flag.String("gac", "", "GAC source file to compile and run")
	program := flag.String("program", "", "miniparsec workload name")
	stack := flag.Bool("stack", false, "run the lock-free-stack ABA experiment")
	threads := flag.Int("threads", 1, "worker threads")
	scale := flag.Float64("scale", 0.25, "workload scale factor")
	ops := flag.Uint64("ops", 1048575, "stack operations (with -stack)")
	nodes := flag.Uint("nodes", 64, "stack nodes (with -stack)")
	arg := flag.Uint("arg", 0, "r0 argument of every thread (-image/-gac only)")
	fuse := flag.Bool("fuse", false, "enable rule-based translation (fuse LL/SC retry loops into host atomics)")
	traceInstrs := flag.Bool("trace-instrs", false, "single-step the threads round-robin, logging every guest instruction to stderr (-image/-gac only)")
	traceFile := flag.String("trace", "", "write the atomic-event trace (virtual-timestamped JSON lines) to this file (-image/-gac only)")
	ckptEvery := flag.Uint64("checkpoint-every", 0, "capture a recovery checkpoint every N virtual cycles (0 = off; -image/-gac only)")
	deadline := flag.Uint64("deadline", 0, "abort when any vCPU passes N virtual cycles (0 = no deadline; -image/-gac only)")
	flag.Parse()

	switch {
	case *stack:
		res, err := harness.RunStack(*scheme, *threads, *ops, uint32(*nodes))
		if err != nil {
			return err
		}
		fmt.Printf("scheme=%s ops=%d corrupt=%.2f%% crashed=%v\naudit: %s\n",
			res.Scheme, res.Ops, res.CorruptPct, res.Crashed, res.Report)
		if res.Crashed {
			fmt.Println("reason:", res.Reason)
		}
		return nil

	case *program != "":
		res, err := harness.RunWorkload(harness.RunConfig{
			Program: *program, Scheme: *scheme, Threads: *threads, Scale: *scale,
		})
		if err != nil {
			return err
		}
		if res.Crashed {
			fmt.Printf("CRASHED: %s\n", res.CrashReason)
			return nil
		}
		printStats(res.Stats, res.VirtualTime)
		fmt.Printf("wall time: %s\n", res.WallTime)
		return nil

	case *image != "" || *gacFile != "":
		var im *asm.Image
		if *gacFile != "" {
			src, err := os.ReadFile(*gacFile)
			if err != nil {
				return err
			}
			im, err = gac.Compile(string(src))
			if err != nil {
				return err
			}
		} else {
			f, err := os.Open(*image)
			if err != nil {
				return err
			}
			var rerr error
			im, rerr = asm.ReadImage(f)
			f.Close()
			if rerr != nil {
				return rerr
			}
		}
		if *traceInstrs && *ckptEvery > 0 {
			return errors.New("-trace-instrs single-steps the machine, which captures no checkpoints: drop -checkpoint-every")
		}
		cfg := engine.DefaultConfig(*scheme)
		cfg.FuseAtomics = *fuse
		cfg.CheckpointEvery = *ckptEvery
		cfg.VirtualDeadline = *deadline
		cfg.StepMode = *traceInstrs
		if *traceFile != "" {
			cfg.TraceEvents = true
		}
		m, err := engine.NewMachine(cfg)
		if err != nil {
			return err
		}
		if err := m.LoadImage(im); err != nil {
			return err
		}
		for i := 0; i < *threads; i++ {
			if _, err := m.SpawnThread(im.Entry, uint32(*arg)); err != nil {
				return err
			}
		}
		var runErr error
		if *traceInstrs {
			runErr = traceRun(m, os.Stderr)
		} else {
			runErr = m.Run()
		}
		// Flush the event trace even when the run failed: a trace of the
		// cycles leading up to a fault is the whole point of having one.
		if *traceFile != "" {
			if err := writeTrace(*traceFile, m); err != nil {
				fmt.Fprintln(os.Stderr, "atomemu: writing trace:", err)
			}
		}
		if runErr != nil {
			return runErr
		}
		for _, v := range m.Output() {
			fmt.Println(v)
		}
		printStats(m.AggregateStats(), m.VirtualTime())
		return nil
	}
	flag.Usage()
	return fmt.Errorf("one of -image, -gac, -program or -stack is required (programs: %v)", names())
}

// traceRun drives a step-mode machine to its end: each round steps every
// runnable vCPU once, in tid order, logging the instruction it is about to
// execute to w. The schedule is fixed, so the log is the same on every run.
// A round with live vCPUs but none runnable cannot happen: the wait that
// left every live vCPU waiting has stopped the machine with a deadlock.
func traceRun(m *engine.Machine, w io.Writer) error {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	for !m.Stopped() {
		live := false
		for _, c := range m.CPUs() {
			if c.Halted() || m.Stopped() {
				continue
			}
			live = true
			if c.Waiting() {
				continue
			}
			if word, f := m.Mem().FetchWord(c.PC()); f == nil { // a fault is the step's to report
				text := fmt.Sprintf(".word %#08x", word)
				if in, err := arch.Decode(word); err == nil {
					text = in.String()
				}
				fmt.Fprintf(bw, "T%d %08x: %-24s r0=%08x r1=%08x sp=%08x\n",
					c.TID(), c.PC(), text, c.Reg(arch.R0), c.Reg(arch.R1), c.Reg(arch.SP))
			}
			c.Step() // a failing step stops the machine; m.Err reports it
		}
		if !live {
			break
		}
	}
	return m.Err()
}

// writeTrace dumps the machine's merged event stream as JSON lines.
func writeTrace(path string, m *engine.Machine) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	events := m.TraceEvents()
	if dropped := m.TraceDropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "atomemu: trace rings overflowed, %d oldest events dropped\n", dropped)
	}
	if err := obs.WriteJSONL(f, events); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "atomemu: wrote %d events to %s\n", len(events), path)
	return f.Close()
}

func names() []string {
	var out []string
	for _, s := range workload.Specs() {
		out = append(out, s.Name)
	}
	return out
}

func printStats(st stats.CPU, vt uint64) {
	fmt.Printf("guest instrs: %d  loads: %d  stores: %d  LL/SC: %d/%d (fails %d)\n",
		st.GuestInstrs, st.Loads, st.Stores, st.LLs, st.SCs, st.SCFails)
	fmt.Printf("virtual time: %d cycles  (native %d, exclusive %d, instrument %d, mprotect %d, htm %d)\n",
		vt, st.Cycles[stats.CompNative], st.Cycles[stats.CompExclusive],
		st.Cycles[stats.CompInstrument], st.Cycles[stats.CompMProtect], st.Cycles[stats.CompHTM])
	if st.PageFaults > 0 {
		fmt.Printf("page faults: %d (false sharing %d)\n", st.PageFaults, st.FalseSharing)
	}
	if st.HTMCommits+st.HTMAborts > 0 {
		fmt.Printf("htm: %d commits, %d aborts\n", st.HTMCommits, st.HTMAborts)
	}
}
