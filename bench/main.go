// Command bench is atomemu's benchmark: six workloads, their end-to-end
// metrics, and a per-layer ledger from the engine up to the router fabric.
// See README.md next to this file. Run it from this directory:
//
//	go run . all -seed 1            every workload, end-to-end metrics
//	go run . all -seed 1 -trace     the same plus the traced per-layer pass
//	go run . agree A.json B.json    do two runs of one commit agree
//	go run . compare PARENT.json CHANGE.json
//
// and, as BENCHMARK.json's command does through run.sh, one workload at a
// time:
//
//	go run . --workload svc_open --seed 3 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

const outDir = "out"

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch cmd := os.Args[1]; {
	case strings.HasPrefix(cmd, "-"):
		err = cmdOne(os.Args[1:])
	case cmd == "all":
		err = cmdAll(os.Args[2:])
	case cmd == "agree" || cmd == "compare":
		err = cmdCompare(cmd, os.Args[2:])
	case cmd == "spec":
		err = cmdSpec()
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage (from the bench directory):
  bench all [-seed N] [-trace]
  bench --workload NAME --seed N --seconds S --trace 0|1
  bench agree A.json B.json
  bench compare PARENT.json CHANGE.json
  bench spec        print BENCHMARK.json from the tables in spec.go`)
	os.Exit(2)
}

// cmdOne runs one workload in this process and prints, as the last line of
// standard output, the result object BENCHMARK.json's contract asks for:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one. `bench all` runs its children through here too.
func cmdOne(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 15, "length of the timed window")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	layers := fs.String("layers", "all", "traced run: which layer drivers to run (all, or home: those of this workload)")
	layerSeconds := fs.Float64("layer-seconds", 0, "traced run: time budget of all layer drivers together (default: half of --seconds)")
	resultFile := fs.String("result-file", "", "also write the full result here (used by `bench all`)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := checkHome(); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(tmpRoot(), w.Name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	window := time.Duration(*seconds * float64(time.Second))
	var res runResult
	if *trace == 0 {
		res, err = runUntraced(w, *seed, window, tmp)
	} else {
		res, err = runTraced(w, *seed, window, time.Duration(*layerSeconds*float64(time.Second)), tmp, *layers)
	}
	if err != nil {
		return err
	}
	printRun(os.Stdout, res)
	if *resultFile != "" {
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*resultFile, data, 0o644); err != nil {
			return err
		}
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]wire)}
	for _, n := range contractNames(res.Traced) {
		m, ok := res.Metrics[n]
		if !ok && res.Traced && *layers != "all" {
			continue // a child of `bench all -trace`: its siblings run the other layers
		}
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", w.Name, n)
		}
		last.Metrics[n] = wire{m.Value, m.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", w.Name, res.Failed, res.Attempted)
	}
	return nil
}

func runUntraced(w benchWorkload, seed int64, window time.Duration, tmp string) (runResult, error) {
	env := &runEnv{seed: seed, window: window, tmp: tmp}
	o, err := w.Run(env)
	if err != nil {
		return runResult{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	return o.result(w.Name, env), nil
}

// checkHome refuses to run anywhere but the benchmark's own directory, which
// is where out/ and the module file live.
func checkHome() error {
	data, err := os.ReadFile("go.mod")
	if err != nil || !strings.Contains(string(data), "module atomemu/bench") {
		return fmt.Errorf("run from the bench directory (go run -C bench . ..., or bench/run.sh)")
	}
	return nil
}

func tmpRoot() string {
	dir := filepath.Join(outDir, "tmp")
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}
