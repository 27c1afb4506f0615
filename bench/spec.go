package main

import (
	"encoding/json"
	"os"
	"time"
)

// A workload is one set of generated inputs plus the loop that feeds them to
// the system. Names are fixed: later issues quote them.
type benchWorkload struct {
	Name string
	Why  string
	// Window is the timed window `bench all` gives it.
	Window time.Duration
	Run    func(env *runEnv) (*outcome, error)
}

func workloads() []benchWorkload {
	return []benchWorkload{
		{"compute_1t", "store-heavy blackscholes on 1 vCPU under hst: the execution core, mmu and store instrumentation do all the work, translation and exclusive sections none", 15 * time.Second, runCompute1T},
		{"atomic_2t", "the paper's lock-free stack on 2 vCPUs under hst: LL/SC, hashtab and stop-the-world entry dominate and stores are few, the mirror of compute_1t for the scheme layer", 15 * time.Second, runAtomic2T},
		{"cold_translate", "never-seen straight-line images each run once on a fresh machine: decode, translate, optimize and machine construction do the work, the hot loop none", 15 * time.Second, runColdTranslate},
		{"svc_open", "open-loop Poisson arrivals at 20 jobs/s from 16 repeat images through router and 2 workers as shipped: the north-star latency path, reuse mechanisms off by default", 20 * time.Second, runSvcOpen},
		{"svc_sat_repeat", "closed loop of 24 outstanding jobs over the same 16 images: capacity where per-job CPU, journal fsync and router polling bound throughput, on traffic reuse helps", 15 * time.Second, runSvcSatRepeat},
		{"svc_sat_unique", "the same closed loop but every job a never-seen image: every cache lookup misses and every block is published, so a reuse gain bought with miss-path cost shows", 15 * time.Second, runSvcSatUnique},
	}
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// contractSeconds is run_seconds in BENCHMARK.json: the window the acceptance
// driver gives every workload.
const contractSeconds = 15

// hostBound is the regression bound of every metric measured in host time or
// host memory, as the issue that defined this benchmark fixed it. It is what
// `bench agree` and `bench compare` judge with: a metric@workload whose
// run-to-run spread is wider reads "unresolved" there, it is not given a
// wider bound.
const hostBound = 0.10

// gateBound is the bound BENCHMARK.json carries for the same metrics. That
// file's contract sizes a bound from the host the acceptance driver runs on
// (three times the quartile spread of ten runs, at most 0.25) and has one
// bound per metric for all six workloads, so the least steady workload sets
// it: the spreads measured on the two-core shared VM (README "How steady")
// put it at the cap. The driver rejects automatically what passes it;
// hostBound is what a change's own `bench compare` has to answer to.
const gateBound = 0.25

// exact marks a bound of "must repeat exactly" in e2eMetric.BoundOn.
const exact = -1

// e2eMetric is one end-to-end metric: what a user of the system would see.
type e2eMetric struct {
	Name   string
	Unit   string
	Higher bool // true when a larger value is better
	// Bound is the share of the parent's value by which the metric may get
	// worse before a change counts as a regression; Absolute makes it a
	// difference instead of a share. BoundOn overrides it per workload.
	Bound    float64
	Absolute bool
	BoundOn  map[string]float64
	// Gate is the metric's bound in BENCHMARK.json's end_to_end list, which
	// takes only metrics measured on every workload that never read 0. With
	// Gate 0 BENCHMARK.json lists the metric under per_layer.
	Gate float64
	// On lists the workloads on which the metric is end-to-end: the pairs
	// `bench agree` and `bench compare` judge. They are the pairs the issue
	// names, less those that did not repeat within their bound when `bench
	// all` was run twice on one commit: such a pair is demoted to a reported
	// number, its bound is not widened.
	On   []string
	What string
}

var engineNames = []string{"compute_1t", "atomic_2t", "cold_translate"}
var allNames = append(append([]string{}, engineNames...), "svc_open", "svc_sat_repeat", "svc_sat_unique")

func e2eMetrics() []e2eMetric {
	return []e2eMetric{
		// Demoted on svc_sat_*, as the issue's rule has it: two `bench all`
		// runs of one commit read the 25 ms fabric start a quarter apart.
		{Name: "setup_s", Unit: "s", Bound: 0.25, Gate: 0.25, On: append(append([]string{}, engineNames...), "svc_open"),
			What: "median time of one set-up (program build, image generation and compile, or fabric start), repeated within the run"},
		{Name: "guest_mips", Unit: "Mi/s", Higher: true, Bound: hostBound, Gate: gateBound, On: engineNames,
			What: "guest instructions retired per host second / 1e6 over the timed operations"},
		{Name: "sc_per_s", Unit: "1/s", Higher: true, Bound: hostBound, Gate: gateBound, On: []string{"atomic_2t"},
			What: "successful store-conditionals per host second"},
		{Name: "vcycles_per_ginstr", Unit: "vcyc/ginstr", Bound: 0.05, Gate: 0.05, On: engineNames,
			BoundOn: map[string]float64{"compute_1t": exact, "cold_translate": exact},
			What:    "virtual cycles / guest instructions: simulated time, the paper's unit, never mixed with host time"},
		// Demoted on svc_sat_repeat and svc_sat_unique for the same reason:
		// 100 and 87, 97 and 87 jobs/s from two runs of one commit minutes
		// apart (README "How steady"). BENCHMARK.json still gates it there.
		{Name: "jobs_per_s", Unit: "1/s", Higher: true, Bound: hostBound, Gate: gateBound, On: []string{"svc_open"},
			What: "operations (jobs; iterations or images on the engine workloads) completed correctly per second"},
		{Name: "job_p50_ms", Unit: "ms", Bound: hostBound, Gate: gateBound, On: []string{"svc_open"},
			What: "median operation latency: due time to terminal for a job, start to verified for an iteration"},
		// Not gated: one journal fsync that hangs for a second owns the p95
		// of a 15 s open loop, and ten runs of one commit spread by 0.22.
		{Name: "job_p95_ms", Unit: "ms", Bound: hostBound, On: []string{"svc_open"},
			What: "the highest percentile of the same latency, up to the 95th, that has 10 samples beyond it, never below the median"},
		{Name: "peak_rss_mb", Unit: "MB", Bound: hostBound, Gate: gateBound, On: allNames,
			What: "the workload process's peak resident set (ru_maxrss)"},
		{Name: "cold_start_ms", Unit: "ms", Bound: hostBound, On: []string{"cold_translate"},
			What: "host ms from NewMachine to Run returning for one unseen image"},
		{Name: "fail_share", Unit: "share", Bound: 0.005, Absolute: true, On: allNames,
			What: "operations failed / attempted; a failed operation also misses every latency"},
	}
}

func (m e2eMetric) boundOn(w string) float64 {
	if b, ok := m.BoundOn[w]; ok {
		return b
	}
	return m.Bound
}

func e2eByName(name string) (e2eMetric, bool) {
	for _, m := range e2eMetrics() {
		if m.Name == name {
			return m, true
		}
	}
	return e2eMetric{}, false
}

// benchmarkJSON is the repository's BENCHMARK.json, generated from the tables
// in spec.go and the layer drivers so the file and the program cannot drift
// (a test compares them).
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerM struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layerM `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: contractSeconds}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range e2eMetrics() {
		if m.Gate > 0 {
			doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, better(m.Higher), m.Gate})
		} else {
			doc.PerLayer = append(doc.PerLayer, layerM{m.Name, m.Unit, better(m.Higher)})
		}
	}
	for _, m := range perLayerMetrics() {
		if _, dup := e2eByName(m.Name); dup {
			continue
		}
		doc.PerLayer = append(doc.PerLayer, layerM{m.Name, m.Unit, better(m.Higher)})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func cmdSpec() error {
	data, err := benchmarkJSON()
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}
