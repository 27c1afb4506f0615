package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"atomemu/internal/gac"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // descending: the picker must sort
		}
		return v
	}
	for _, tc := range []struct {
		n         int
		wantValue float64
		wantPct   float64
	}{
		{400, 380, 0.95},    // p95 proper: 20 samples beyond
		{200, 190, 0.95},    // exactly ten beyond
		{100, 90, 0.90},     // p95 would leave five beyond: falls to p90
		{21, 11, 11.0 / 21}, // the median is the highest rank with ten beyond
		{15, 8, 8.0 / 15},   // too few samples for any tail: the median, never less
		{5, 3, 3.0 / 5},
		{1, 1, 1},
	} {
		got, pct := tailPercentile(seq(tc.n), 0.95)
		if got != tc.wantValue || math.Abs(pct-tc.wantPct) > 1e-9 {
			t.Errorf("n=%d: got value %v at p%.1f, want %v at p%.1f", tc.n, got, pct*100, tc.wantValue, tc.wantPct*100)
		}
		if beyond := float64(tc.n) - got; tc.n > 2*minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %v samples beyond the reported value", tc.n, beyond)
		}
	}
	if v, pct := tailPercentile(nil, 0.95); v != 0 || pct != 0 {
		t.Errorf("no samples: got %v, %v", v, pct)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a: the overlap counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past the parent: clipped
		{ID: 5, Parent: 2, Name: "leaf", Start: 12 * ms, End: 17 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 15 * ms, 3: 30 * ms, 4: 30 * ms, 5: 5 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	byName, count := selfByName(spans)
	if byName["root"] != 50*ms || count["leaf"] != 1 {
		t.Errorf("by name: %v %v", byName, count)
	}
}

func TestNilTracerIsTheUntracedRun(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, 0, "x")
	tr.end(id)
	if id != 0 || tr.add(0, 0, "y", time.Now(), time.Now()) != 0 || tr.closed() != nil {
		t.Error("a nil tracer recorded something")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := genPool(7), genPool(7); !reflect.DeepEqual(a, b) {
		t.Error("same seed, different repeat pool")
	}
	if a, b := genColdBatch(7, 3), genColdBatch(7, 3); !reflect.DeepEqual(a, b) {
		t.Error("same seed, different cold batch")
	}
	window := 15 * time.Second
	a, b := genArrivals(7, openRate, window), genArrivals(7, openRate, window)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different arrival schedule")
	}
	if len(a) != 300 {
		t.Errorf("%d arrivals in 15 s at 20/s, want exactly 300", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] > window {
			t.Fatalf("arrival %d at %v is out of order or past the window", i, a[i])
		}
	}
	if reflect.DeepEqual(a, genArrivals(8, openRate, window)) {
		t.Error("different seeds, same arrival schedule")
	}
	if !reflect.DeepEqual(poolOrder(7, 100), poolOrder(7, 100)) {
		t.Error("same seed, different pool order")
	}
	seen := make(map[int]int)
	for _, k := range poolOrder(7, 10*poolImages) {
		seen[k]++
	}
	for k := 0; k < poolImages; k++ {
		if seen[k] != 10 {
			t.Errorf("pool image %d drawn %d times in ten rounds, want 10", k, seen[k])
		}
	}
}

func TestBalancePoolEvensOutTheWorkers(t *testing.T) {
	primary, alternate := genPool(5), genPoolAlternates(5)
	// The worst placement: one worker owns every primary image, the other
	// every alternate.
	isAlt := make(map[string]bool)
	for _, p := range alternate {
		isAlt[p.Source] = true
	}
	owner := func(p guestProg) string {
		if isAlt[p.Source] {
			return "b"
		}
		return "a"
	}
	load := make(map[string]int)
	total := 0
	for i, p := range balancePool(primary, alternate, owner) {
		if p.Weight != primary[i].Weight || p.Kind != primary[i].Kind {
			t.Errorf("slot %d changed shape: %s/%d for %s/%d", i, p.Kind, p.Weight, primary[i].Kind, primary[i].Weight)
		}
		load[owner(p)] += p.Weight
		total += p.Weight
	}
	if diff := load["a"] - load["b"]; diff > total/10 || -diff > total/10 {
		t.Errorf("workers own %d and %d of %d statements", load["a"], load["b"], total)
	}
	// With one owner there is nothing to balance: the primary pool is kept.
	same := balancePool(primary, alternate, func(guestProg) string { return "a" })
	if !reflect.DeepEqual(same, primary) {
		t.Error("a single owner changed the pool")
	}
}

func TestDifferentSeedsAndIndexesGiveDifferentImages(t *testing.T) {
	sources := make(map[string]string)
	for seed := int64(1); seed <= 2; seed++ {
		for i := 0; i < 2*poolImages; i++ {
			p := genUnique(seed, i)
			if prev, dup := sources[p.Source]; dup {
				t.Fatalf("seed %d job %d repeats the image of %s", seed, i, prev)
			}
			sources[p.Source] = p.Kind
		}
	}
	if genPool(1)[0].Source == genPool(2)[0].Source {
		t.Error("different seeds, same pool image")
	}
	if genColdBatch(1, 0)[0].Source == genColdBatch(1, 1)[0].Source {
		t.Error("two iterations of one seed share an image")
	}
}

// The generator's oracle is computed in Go; this is the one place it is
// checked against the emulator, on the scheme the workloads use.
func TestGeneratedProgramsPrintWhatTheOracleSays(t *testing.T) {
	progs := append(genPool(3), genColdBatch(3, 0)[:2]...)
	for i, p := range progs {
		im, err := gac.Compile(p.Source)
		if err != nil {
			t.Fatalf("program %d (%s) does not compile: %v", i, p.Kind, err)
		}
		if s := runMachine(nil, 0, 0, printJob(im, p.Want)); !s.ok {
			t.Errorf("program %d (%s): %s", i, p.Kind, s.why)
		}
	}
}

func TestJudge(t *testing.T) {
	mips, _ := e2eByName("guest_mips") // higher is better, bound hostBound
	vcyc, _ := e2eByName("vcycles_per_ginstr")
	fail, _ := e2eByName("fail_share")
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c, c * 1.01} }
	noisy := func(c float64) []float64 { return []float64{c * 0.8, c * 0.9, c * 1.1, c * 1.2} }
	for _, tc := range []struct {
		name       string
		m          e2eMetric
		w          string
		base, cand []float64
		same       bool
		want       string
	}{
		{"small loss", mips, "compute_1t", steady(100), steady(95), false, "within-bound"},
		{"big loss", mips, "compute_1t", steady(100), steady(70), false, "worse"},
		{"big gain", mips, "compute_1t", steady(100), steady(140), false, "better"},
		{"noise wider than bound", mips, "compute_1t", noisy(100), noisy(95), false, "unresolved"},
		{"noisy but every run better", mips, "compute_1t", noisy(100), noisy(200), false, "better"},
		{"one sample a side", mips, "compute_1t", []float64{100}, []float64{70}, false, "worse"},
		{"same code agrees", mips, "compute_1t", []float64{100}, []float64{104}, true, "agree"},
		{"same code does not repeat", mips, "compute_1t", []float64{100}, []float64{70}, true, "unresolved"},
		{"exact repeats", vcyc, "compute_1t", []float64{16.03}, []float64{16.03}, true, "agree"},
		{"exact moved", vcyc, "compute_1t", []float64{16.03}, []float64{16.04}, false, "worse"},
		{"exact is per workload", vcyc, "atomic_2t", []float64{57.0}, []float64{58.0}, false, "within-bound"},
		{"absolute bound", fail, "svc_open", []float64{0}, []float64{0.004}, false, "within-bound"},
		{"absolute bound passed", fail, "svc_open", []float64{0}, []float64{0.02}, false, "worse"},
	} {
		if got := judge(tc.m, tc.w, tc.base, tc.cand, tc.same).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestLedgerIsWellFormed(t *testing.T) {
	names := make(map[string]bool)
	var share float64
	for _, d := range layerDrivers() {
		if _, ok := workloadByName(d.Home); !ok {
			t.Errorf("layer %s: home %q is not a workload", d.Pkg, d.Home)
		}
		share += d.Share
		for _, m := range d.Metrics {
			if names[m.Name] {
				t.Errorf("metric %s is registered twice", m.Name)
			}
			names[m.Name] = true
			if m.Moves == "" || m.Unit == "" {
				t.Errorf("metric %s lacks a unit or the end-to-end metric it should move", m.Name)
			}
		}
	}
	if math.Abs(share-1) > 1e-9 {
		t.Errorf("layer time shares sum to %v, want 1", share)
	}
	if n := len(contractNames(true)); n > 128 {
		t.Errorf("%d per-layer metrics, BENCHMARK.json allows 128", n)
	}
	for _, m := range runnerMetrics {
		names[m.Name] = true
	}
	for _, m := range e2eMetrics() {
		if m.Gate == 0 && !names[m.Name] {
			t.Errorf("end-to-end metric %s is neither gated nor reported by the traced run", m.Name)
		}
		if m.Gate > 0 && m.Gate < m.Bound {
			t.Errorf("%s: BENCHMARK.json's bound %v is tighter than the benchmark's own %v", m.Name, m.Gate, m.Bound)
		}
	}
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Error("BENCHMARK.json differs from `bench spec`; regenerate it with: go run . spec > ../BENCHMARK.json")
	}
}

// The smoke test runs every workload for a 200 ms window, and one traced run
// with every layer driver on a token budget, checking that each metric of
// the contract is reported and every oracle passes.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads() {
		res, err := runUntraced(w, 1, 200*time.Millisecond, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, res.Failed, res.Attempted, res.Notes)
		}
		if closed := w.Name == "svc_sat_repeat" || w.Name == "svc_sat_unique"; closed != (res.Metrics["peak_rss_mb"].Note != "") {
			t.Errorf("%s: peak_rss_mb is noted %q; a closed loop, and only a closed loop, reads it after a fixed number of jobs", w.Name, res.Metrics["peak_rss_mb"].Note)
		}
		for _, n := range contractNames(false) {
			if m, ok := res.Metrics[n]; !ok || m.Value <= 0 {
				t.Errorf("%s: %s = %v (reported: %v), want a positive value", w.Name, n, m.Value, ok)
			}
		}
	}
	w, _ := workloadByName("cold_translate")
	res, err := runTraced(w, 1, time.Second, time.Second, t.TempDir(), "all")
	if err != nil {
		t.Fatal(err)
	}
	// hst-htm and pico-cas may corrupt the stack; that is counted, not failed.
	if !res.Correct {
		t.Errorf("traced run: %d of %d operations failed: %v", res.Failed, res.Attempted, res.Notes)
	}
	for _, n := range contractNames(true) {
		if _, ok := res.Metrics[n]; !ok {
			t.Errorf("traced run does not report %s", n)
		}
	}
	if _, err := os.Stat("out/trace_cold_translate.json"); err != nil {
		t.Error(err)
	}
}
