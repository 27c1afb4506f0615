package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"atomemu/internal/stats"
)

// metricValue is one reported number. N is the sample count behind a median
// or percentile (0 for a plain ratio or count).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// runResult is what one child process (one workload, traced or not) reports.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`
}

// runEnv is what a workload is given: the seed its inputs come from, the
// length of its timed window, a scratch directory, and the tracer (nil on
// the untraced run that produces the end-to-end numbers).
type runEnv struct {
	seed   int64
	window time.Duration
	tmp    string
	tr     *tracer
	// warm says the process has already run this workload once (the traced
	// pass follows an untraced one), so the warm-up iteration is skipped.
	warm bool
}

// opSample is one timed operation: an iteration, an image, a job.
type opSample struct {
	wall    time.Duration
	instrs  uint64    // guest instructions retired
	scOK    uint64    // successful store-conditionals
	vcycles uint64    // virtual cycles charged
	stats   stats.CPU // every counter of an engine run, for the layer drivers
	ok      bool      // passed its oracle
	why     string    // first failure, when !ok
}

// outcome accumulates a workload's samples.
type outcome struct {
	setups []float64 // seconds per set-up repetition
	ops    []opSample
	// busy is the time base of the rates: the summed operation time of a
	// serial engine loop, the span from first due to last completion of a
	// service loop.
	busy time.Duration
	// ratioOps, when positive, limits vcycles_per_ginstr to the first that
	// many operations: the ones every run of a seed executes whatever the
	// host's speed, so that the ratio repeats exactly.
	ratioOps int
	// rssMB, when positive, is peak_rss_mb read at a fixed point of the work
	// (rssNote says which) instead of at the end of the run.
	rssMB   float64
	rssNote string
	notes   []string
}

// A workload repeats its set-up so that setup_s is a median and not one cold
// sample: at least setupRepsMin times, and on until a fifteenth of the timed
// window is spent (one second of BENCHMARK.json's fifteen) or setupRepsMax
// is reached, so that a set-up of microseconds gets the many repetitions its
// median needs, one of a fifth of a second does not cost the run more than a
// second or so, and the short passes of a traced run spend little on it.
const (
	setupRepsMin = 5
	setupRepsMax = 101
	setupShare   = 15
)

// timeSetup repeats f and keeps each duration; f must leave the state of its
// last call in place for the workload to use. Between two repetitions, and
// untimed, undo (when not nil) releases what the earlier one set up and the
// heap is collected, so that every repetition starts from the same state and
// none pays for its predecessors' garbage.
func (o *outcome) timeSetup(env *runEnv, f func() error, undo func()) error {
	for more := rounds(env.window/setupShare, setupRepsMin, setupRepsMax); more(); {
		if len(o.setups) > 0 {
			if undo != nil {
				undo()
			}
			runtime.GC()
		}
		t := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(t).Seconds())
	}
	return nil
}

// serialLoop is the timed window of an engine workload: one discarded
// warm-up iteration (untraced, inputs of its own), then iterations until the
// window is used, with a GC between iterations and never inside one. An
// iteration is not started when half of the previous one's length would
// overrun the window.
func (env *runEnv) serialLoop(o *outcome, iter func(env *runEnv, i int) []opSample) {
	if !env.warm {
		warmup := *env
		warmup.tr = nil
		iter(&warmup, -1)
		runtime.GC()
	}
	start := time.Now()
	var last time.Duration
	for i := 0; i == 0 || time.Since(start)+last/2 < env.window; i++ {
		t := time.Now()
		samples := iter(env, i)
		last = time.Since(t)
		for _, s := range samples {
			o.busy += s.wall
		}
		o.ops = append(o.ops, samples...)
		runtime.GC()
	}
}

// result turns the samples into the end-to-end metrics.
func (o *outcome) result(w string, env *runEnv) runResult {
	res := runResult{Workload: w, Seed: env.seed, Seconds: env.window.Seconds(), Traced: env.tr != nil,
		Metrics: make(map[string]metricValue), Notes: o.notes}
	var instrs, scOK, vcycles, ratioInstrs, ratioCycles uint64
	var lat []float64
	for i, s := range o.ops {
		res.Attempted++
		if !s.ok {
			res.Failed++
			if len(res.Notes) < 8 {
				res.Notes = append(res.Notes, "failed: "+s.why)
			}
			continue
		}
		instrs += s.instrs
		scOK += s.scOK
		vcycles += s.vcycles
		if i < o.ratioOps {
			ratioInstrs += s.instrs
			ratioCycles += s.vcycles
		}
		lat = append(lat, ms(s.wall))
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	good := len(lat)
	secs := o.busy.Seconds()
	put := func(name string, v float64, n int, note string) {
		m, _ := e2eByName(name)
		res.Metrics[name] = metricValue{Value: v, Unit: m.Unit, N: n, Note: note}
	}
	put("setup_s", median(o.setups), len(o.setups), "")
	if secs > 0 {
		put("guest_mips", float64(instrs)/secs/1e6, 0, "")
		put("sc_per_s", float64(scOK)/secs, 0, "")
		put("jobs_per_s", float64(good)/secs, good, "")
	}
	if o.ratioOps > 0 {
		instrs, vcycles = ratioInstrs, ratioCycles
	}
	if instrs > 0 {
		put("vcycles_per_ginstr", float64(vcycles)/float64(instrs), 0, "")
	}
	put("job_p50_ms", median(lat), good, "")
	tail, pct := tailPercentile(lat, 0.95)
	put("job_p95_ms", tail, good, fmt.Sprintf("p%.0f", pct*100))
	if m, _ := e2eByName("cold_start_ms"); slices.Contains(m.On, w) {
		put("cold_start_ms", median(lat), good, "")
	}
	if res.Attempted > 0 {
		put("fail_share", float64(res.Failed)/float64(res.Attempted), res.Attempted, "")
	}
	if o.rssMB > 0 {
		put("peak_rss_mb", o.rssMB, 0, o.rssNote)
	} else {
		put("peak_rss_mb", peakRSSMB(), 0, "")
	}
	return res
}

// peakRSSMB is this process's peak resident set. Linux reports ru_maxrss in
// KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
