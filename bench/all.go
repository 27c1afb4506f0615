package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// benchResult is what `bench all` writes to out/result.json.
type benchResult struct {
	Commit string      `json:"commit"`
	Go     string      `json:"go"`
	NProc  int         `json:"nproc"`
	Seed   int64       `json:"seed"`
	When   string      `json:"when"`
	Runs   []runResult `json:"runs"`             // untraced: the end-to-end numbers
	Traced []runResult `json:"traced,omitempty"` // the per-layer pass, with -trace
}

// historyLine is one line of out/history.jsonl: the same numbers flattened
// to metric@workload (per-layer metrics under their own name), so that a
// trajectory over commits can be read with one jq expression and fed back to
// `bench compare`.
type historyLine struct {
	Commit  string             `json:"commit"`
	Seed    int64              `json:"seed"`
	NProc   int                `json:"nproc"`
	Go      string             `json:"go"`
	When    string             `json:"when"`
	Metrics map[string]float64 `json:"metrics"`
}

// Budgets of the traced pass under `bench all -trace`, sized so that both
// passes together stay under three minutes on two cores.
const (
	tracedSeconds      = 8.0  // per workload: untraced and traced pass of passShare each
	tracedLayerSeconds = 28.0 // all layer drivers together, each run once by its home workload
)

func cmdAll(args []string) error {
	fs := flag.NewFlagSet("bench all", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	trace := fs.Bool("trace", false, "also make the traced per-layer pass")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkHome(); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	res := benchResult{Commit: gitCommit(), Go: runtime.Version(), NProc: runtime.NumCPU(), Seed: *seed,
		When: time.Now().UTC().Format(time.RFC3339)}
	fmt.Printf("bench all: commit %s, %s, nproc %d, seed %d\n", res.Commit, res.Go, res.NProc, res.Seed)

	// Each workload runs in a child process of its own, so that heap state
	// does not leak from one to the next and peak_rss_mb is that workload's.
	child := func(w benchWorkload, extra ...string) (runResult, error) {
		file := filepath.Join(tmpRoot(), "result-"+w.Name+".json")
		defer os.Remove(file)
		cmd := exec.Command(self, append([]string{"--workload", w.Name, "--seed", fmt.Sprint(*seed), "--result-file", file}, extra...)...)
		cmd.Stdout = io.Discard // the child's table is reprinted below from its result file
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		var r runResult
		data, err := os.ReadFile(file)
		if err == nil {
			err = json.Unmarshal(data, &r)
		}
		if err != nil {
			return r, fmt.Errorf("%s: child left no result (%v): %v", w.Name, runErr, err)
		}
		return r, nil
	}
	for _, w := range workloads() {
		r, err := child(w, "--seconds", fmt.Sprint(w.Window.Seconds()), "--trace", "0")
		if err != nil {
			return err
		}
		printRun(os.Stdout, r)
		res.Runs = append(res.Runs, r)
	}
	if *trace {
		for _, w := range workloads() {
			r, err := child(w, "--seconds", fmt.Sprint(tracedSeconds), "--trace", "1",
				"--layers", "home", "--layer-seconds", fmt.Sprint(tracedLayerSeconds))
			if err != nil {
				return err
			}
			printRun(os.Stdout, r)
			res.Traced = append(res.Traced, r)
		}
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), data, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(historyLine{res.Commit, res.Seed, res.NProc, res.Go, res.When, res.flatten()})
	if err != nil {
		return err
	}
	hist, err := os.OpenFile(filepath.Join(outDir, "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := hist.Write(append(line, '\n')); err != nil {
		hist.Close()
		return err
	}
	if err := hist.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s and appended to %s\n", filepath.Join("bench", outDir, "result.json"), filepath.Join("bench", outDir, "history.jsonl"))

	var failed []string
	for _, r := range append(append([]runResult(nil), res.Runs...), res.Traced...) {
		if !r.Correct {
			failed = append(failed, fmt.Sprintf("%s (%d of %d failed)", r.Workload, r.Failed, r.Attempted))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("wrong or failed operations on %s", strings.Join(failed, ", "))
	}
	return nil
}

// flatten keys the end-to-end numbers metric@workload and the per-layer
// ones by their own name.
func (b benchResult) flatten() map[string]float64 {
	out := make(map[string]float64)
	for _, r := range b.Runs {
		for name, m := range r.Metrics {
			out[name+"@"+r.Workload] = m.Value
		}
	}
	for _, r := range b.Traced {
		for name, m := range r.Metrics {
			if _, isE2E := e2eByName(name); isE2E {
				continue // the traced pass's copies are not the end-to-end numbers
			}
			if name == "bench.trace_overhead_pct" {
				name += "@" + r.Workload
			}
			out[name] = m.Value
		}
	}
	return out
}

// gitCommit names the commit being measured, when there is a git to ask.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printRun prints one run's metrics by name with unit and sample count:
// end-to-end ones in the glossary's order, per-layer ones in the ledger's.
func printRun(w io.Writer, r runResult) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %.0f s  %s  attempted %d  failed %d\n", r.Workload, r.Seed, r.Seconds, kind, r.Attempted, r.Failed)
	order := make(map[string]int)
	for i, m := range e2eMetrics() {
		order[m.Name] = i
	}
	for i, m := range perLayerMetrics() {
		if _, ok := order[m.Name]; !ok {
			order[m.Name] = 100 + i
		}
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if order[names[i]] != order[names[j]] {
			return order[names[i]] < order[names[j]]
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		m := r.Metrics[n]
		extra := ""
		if m.N > 0 {
			extra = fmt.Sprintf("  n=%d", m.N)
		}
		if m.Note != "" {
			extra += "  " + m.Note
		}
		fmt.Fprintf(w, "%-36s %14.6g %-12s%s\n", n, m.Value, m.Unit, extra)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  #", n)
	}
}
