package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runnerMetrics are the per-layer-list numbers the traced runner computes
// itself, from its two passes over the workload, rather than a layer driver.
var runnerMetrics = []layerMetric{
	{Name: "bench.trace_overhead_pct", Unit: "%", Moves: "every end-to-end metric (they are measured untraced for this reason)"},
	// Always 0 on a healthy tree, so BENCHMARK.json cannot bound it under
	// end_to_end; every run's attempted/failed counts carry it there.
	{Name: "fail_share", Unit: "share", Moves: "itself"},
	// Too few of ten runs of one commit agree on it for BENCHMARK.json to
	// bound it (spec.go), so that file lists it here: from the untraced pass.
	{Name: "job_p95_ms", Unit: "ms", Moves: "itself"},
}

// perLayerMetrics is every per-layer metric, in ledger order.
func perLayerMetrics() []layerMetric {
	var out []layerMetric
	for _, d := range layerDrivers() {
		out = append(out, d.Metrics...)
	}
	return append(out, runnerMetrics...)
}

// contractNames lists the metrics a BENCHMARK.json run must print: the
// gated end-to-end ones untraced, the per-layer ones traced.
func contractNames(traced bool) []string {
	var out []string
	if !traced {
		for _, m := range e2eMetrics() {
			if m.Gate > 0 {
				out = append(out, m.Name)
			}
		}
		return out
	}
	for _, m := range perLayerMetrics() {
		out = append(out, m.Name)
	}
	return out
}

// Shares of a traced run's --seconds: the workload is run once untraced and
// once traced, each for passShare of it, and the layer drivers get
// layerShare between them.
const (
	passShare  = 0.2
	layerShare = 0.4
)

// runTraced is the per-layer run: the workload untraced and then traced
// (the difference is the tracing overhead), the trace and its self-time table
// written out, then the layer drivers — every one (which = "all", what a
// BENCHMARK.json run needs), or only those whose Home is this workload
// (which = "home", how `bench all -trace` spreads them over its children).
func runTraced(w benchWorkload, seed int64, window time.Duration, layerBudget time.Duration, tmp, which string) (runResult, error) {
	pass := time.Duration(float64(window) * passShare)
	plain := &runEnv{seed: seed, window: pass, tmp: filepath.Join(tmp, "plain")}
	po, err := w.Run(plain)
	if err != nil {
		return runResult{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	pres := po.result(w.Name, plain)

	env := &runEnv{seed: seed, window: pass, tmp: filepath.Join(tmp, "traced"), tr: newTracer(), warm: true}
	o, err := w.Run(env)
	if err != nil {
		return runResult{}, fmt.Errorf("%s (traced): %w", w.Name, err)
	}
	tres := o.result(w.Name, env)
	spans := env.tr.closed()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return runResult{}, err
	}
	tracePath := filepath.Join(outDir, "trace_"+w.Name+".json")
	if err := writeChromeTrace(tracePath, spans); err != nil {
		return runResult{}, err
	}

	res := runResult{Workload: w.Name, Seed: seed, Seconds: window.Seconds(), Traced: true,
		Attempted: pres.Attempted + tres.Attempted, Failed: pres.Failed + tres.Failed,
		Metrics: make(map[string]metricValue)}
	res.Notes = append(append(res.Notes, pres.Notes...), tres.Notes...)
	res.Notes = append(res.Notes, fmt.Sprintf("%d spans written to %s", len(spans), filepath.Join("bench", tracePath)))
	res.Notes = append(res.Notes, selfTimeTable(spans)...)

	if u, t := pres.Metrics["jobs_per_s"].Value, tres.Metrics["jobs_per_s"].Value; u > 0 {
		res.Metrics["bench.trace_overhead_pct"] = metricValue{Value: 100 * (u - t) / u, Unit: "%"}
	}
	res.Metrics["job_p95_ms"] = pres.Metrics["job_p95_ms"]
	res.Metrics["fail_share"] = metricValue{Value: float64(res.Failed) / float64(max(res.Attempted, 1)), Unit: "share", N: res.Attempted}

	if layerBudget <= 0 {
		layerBudget = time.Duration(float64(window) * layerShare)
	}
	for _, d := range layerDrivers() {
		if which == "home" && d.Home != w.Name {
			continue
		}
		lenv := &layerEnv{seed: seed, budget: time.Duration(float64(layerBudget) * d.Share), tmp: filepath.Join(tmp, "layer-"+d.Pkg)}
		if err := os.MkdirAll(lenv.tmp, 0o755); err != nil {
			return runResult{}, err
		}
		res.Attempted++
		began := time.Now()
		vals, err := d.Run(lenv)
		res.Notes = append(res.Notes, fmt.Sprintf("layer %-10s took %5.2f s of a %5.2f s share", d.Pkg, time.Since(began).Seconds(), lenv.budget.Seconds()))
		if err != nil {
			// A layer driver that cannot measure is a failed operation of
			// the traced run; its metrics read 0 so the ledger stays whole.
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("failed: layer %s: %v", d.Pkg, err))
		}
		for _, m := range d.Metrics {
			v, ok := vals[m.Name]
			if !ok && err == nil {
				return runResult{}, fmt.Errorf("layer %s did not report %s", d.Pkg, m.Name)
			}
			res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// selfTimeTable renders where the traced pass's time went: per span name,
// how many spans, their summed self time and its share of all self time.
func selfTimeTable(spans []span) []string {
	self, count := selfByName(spans)
	var total time.Duration
	names := make([]string, 0, len(self))
	for n, d := range self {
		total += d
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	out := []string{fmt.Sprintf("self time by span (%d spans, %.1f ms in all):", len(spans), ms(total))}
	for _, n := range names {
		out = append(out, fmt.Sprintf("  %-24s n=%-6d self %10.2f ms  %5.1f%%  %9.3f ms each", n, count[n],
			ms(self[n]), 100*float64(self[n])/float64(max(total, 1)), ms(self[n])/float64(count[n])))
	}
	return out
}
