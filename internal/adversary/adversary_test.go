package adversary

import (
	"path/filepath"
	"strings"
	"testing"

	"atomemu/internal/faultinject"
)

// livelockScenario is the known strict-paper HTM pathology (fig. 11):
// enough threads that the interference model aborts nearly every
// transaction, and StrictPaper retries without backoff until the abort
// streak trips the livelock detector.
func livelockScenario() Scenario {
	return Scenario{
		Target:      "stack",
		Scheme:      "pico-htm",
		Mode:        ModeStep,
		Threads:     12,
		Ops:         64,
		Seed:        7,
		StrictPaper: true,
	}
}

func TestStepModeCleanRun(t *testing.T) {
	o, err := RunScenario(Scenario{Target: "msqueue", Scheme: "hst", Threads: 4, Ops: 48, Seed: 1, MaxSteps: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if o.Class != ClassOK {
		t.Fatalf("class = %s (err=%q oracle=%q), want ok", o.Class, o.Err, o.OracleErr)
	}
	if o.Steps == 0 || o.TraceHash == 0 {
		t.Fatalf("implausible outcome: steps=%d hash=%016x", o.Steps, o.TraceHash)
	}
	if exp, why := Expectation(livelockScenario(), o); !exp {
		t.Fatalf("clean run judged unexpected: %s", why)
	}
}

func TestStepModeDeterminism(t *testing.T) {
	// The core repro guarantee: the same scenario replays to the same
	// trace hash, across targets that park/wake (futexpc), spin on SC
	// (seqlock) and fail via livelock.
	scenarios := []Scenario{
		{Target: "stack", Scheme: "hst", Threads: 4, Ops: 40, Seed: 11, MaxSteps: 2_000_000},
		{Target: "seqlock", Scheme: "hst-weak", Threads: 4, Ops: 30, Seed: 99, QuantumMax: 3, MaxSteps: 2_000_000},
		{Target: "futexpc", Scheme: "pst", Threads: 4, Ops: 24, Seed: 5, MaxSteps: 4_000_000},
		livelockScenario(),
	}
	for _, s := range scenarios {
		s := s
		t.Run(s.Target+"/"+s.Scheme, func(t *testing.T) {
			t.Parallel()
			a, err := RunScenario(s)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunScenario(s)
			if err != nil {
				t.Fatal(err)
			}
			if a.Class != b.Class || a.Steps != b.Steps || a.TraceHash != b.TraceHash {
				t.Fatalf("nondeterministic replay:\n  run1: class=%s steps=%d hash=%016x\n  run2: class=%s steps=%d hash=%016x",
					a.Class, a.Steps, a.TraceHash, b.Class, b.Steps, b.TraceHash)
			}
		})
	}
}

func TestStepModeSeedChangesSchedule(t *testing.T) {
	base := Scenario{Target: "stack", Scheme: "hst", Threads: 4, Ops: 40, Seed: 1, MaxSteps: 2_000_000}
	a, err := RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	other := base
	other.Seed = 2
	b, err := RunScenario(other)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceHash == b.TraceHash {
		t.Fatal("different seeds produced identical traces; the schedule is not seed-driven")
	}
}

func TestLivelockRediscovery(t *testing.T) {
	// The adversary must reproduce the paper's fig. 11 HTM livelock from
	// a cold start, and classify it as an expected (known) failure.
	o, err := RunScenario(livelockScenario())
	if err != nil {
		t.Fatal(err)
	}
	if o.Class != ClassLivelock {
		t.Fatalf("class = %s (err=%q), want livelock", o.Class, o.Err)
	}
	if !strings.Contains(o.Err, "livelock") {
		t.Fatalf("error %q does not mention livelock", o.Err)
	}
	exp, why := Expectation(livelockScenario(), o)
	if !exp {
		t.Fatalf("strict-paper HTM livelock judged unexpected: %s", why)
	}
	if !strings.Contains(why, "fig. 11") {
		t.Fatalf("expectation reason %q does not cite the paper figure", why)
	}

	// Without StrictPaper the same configuration must recover (bounded
	// retry + backoff + fallback), so a livelock there would be a finding.
	relaxed := livelockScenario()
	relaxed.StrictPaper = false
	ro, err := RunScenario(relaxed)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Class == ClassLivelock {
		t.Fatal("livelock persists without StrictPaper; bounded fallback is broken")
	}
}

func TestWedgeOnTinyBudget(t *testing.T) {
	s := Scenario{Target: "stack", Scheme: "hst", Threads: 4, Ops: 64, Seed: 3, MaxSteps: 500}
	o, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if o.Class != ClassWedge {
		t.Fatalf("class = %s, want wedge on a 500-step budget", o.Class)
	}
	if exp, _ := Expectation(s, o); !exp {
		t.Fatal("a wedge must be judged inconclusive, not a finding")
	}
}

func TestFaultInjectionOutcomes(t *testing.T) {
	t.Run("mem-fault", func(t *testing.T) {
		t.Parallel()
		s := Scenario{
			Target: "stack", Scheme: "hst", Threads: 4, Ops: 64, Seed: 9, MaxSteps: 2_000_000,
			Faults: []faultinject.Spec{{Op: "mem-load", Action: "fault", After: 500, Count: 1}},
		}
		o, err := RunScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		if o.Class != ClassGuestFault {
			t.Fatalf("class = %s (err=%q), want guest-fault", o.Class, o.Err)
		}
		if exp, _ := Expectation(s, o); !exp {
			t.Fatal("an injected fault's crash must be expected")
		}
		if len(o.RuleStats) != 1 || o.RuleStats[0].Fired != 1 {
			t.Fatalf("rule stats %+v, want exactly one fired rule", o.RuleStats)
		}
	})
	t.Run("stuck-lock", func(t *testing.T) {
		t.Parallel()
		// A stuck hash-entry lock starves every aliasing LL. Only hst-weak
		// uses the entry itself as an SC lock, so that is where the
		// hash-unlock site lives; its bounded SetWait spin must convert the
		// starvation into a watchdog diagnostic, not an infinite wedge.
		s := Scenario{
			Target: "seqlock", Scheme: "hst-weak", Threads: 4, Ops: 200, Seed: 4,
			MaxSteps: 4_000_000, WatchdogSCFails: 2048,
			Faults: []faultinject.Spec{{Op: "hash-unlock", Action: "stick-lock", After: 30, Count: 1}},
		}
		o, err := RunScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		if o.Class != ClassWatchdog && o.Class != ClassWedge {
			t.Fatalf("class = %s (err=%q), want watchdog or wedge", o.Class, o.Err)
		}
		if exp, _ := Expectation(s, o); !exp {
			t.Fatal("starvation under an injected stuck lock must be expected")
		}
	})
}

func TestRunScenarioRejectsBadInput(t *testing.T) {
	cases := []Scenario{
		{Target: "nope", Scheme: "hst"},
		{Target: "stack", Scheme: "hst", Faults: []faultinject.Spec{{Op: "txn-begin", Action: "fault"}}},
		{Target: "stack", Scheme: "hst", Faults: []faultinject.Spec{{Op: "mem-load", Action: "fault", TID: 2}}},
		{Target: "stack", Scheme: "hst", Mode: "warp"},
	}
	for _, s := range cases {
		if _, err := RunScenario(s); err == nil {
			t.Errorf("scenario %+v accepted, want error", s)
		}
	}
}

func TestFreeModeRuns(t *testing.T) {
	// Free mode is nondeterministic but its classification must be stable
	// for a clean workload, and it reaches the chaining/tiering paths
	// that step mode forces off.
	s := Scenario{
		Target: "stack", Scheme: "hst", Mode: ModeFree, Threads: 4, Ops: 64,
		MaxSteps: 50_000_000, ChainBudget: 8, Tiered: true,
	}
	o, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if o.Class != ClassOK {
		t.Fatalf("class = %s (err=%q oracle=%q), want ok", o.Class, o.Err, o.OracleErr)
	}
}

func TestMinimizeShrinksLivelock(t *testing.T) {
	// Start from a deliberately noisy version of the livelock scenario:
	// an irrelevant fault rule, perturbed knobs, surplus ops. The
	// minimizer must strip the noise while preserving the signature.
	noisy := livelockScenario()
	noisy.Ops = 512
	noisy.HashBits = 10
	noisy.WatchdogSCFails = 8192
	noisy.Faults = []faultinject.Spec{{Op: "mem-store", Action: "fault", After: 1 << 40}} // never fires
	want, err := RunScenario(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if want.Class != ClassLivelock {
		t.Fatalf("noisy scenario class = %s, want livelock", want.Class)
	}

	min, mo := Minimize(noisy, want, 60)
	if !sameSignature(want, mo) {
		t.Fatalf("minimized outcome %s lost the signature %s", mo.Class, want.Class)
	}
	if len(min.Faults) != 0 {
		t.Errorf("irrelevant fault rule survived minimization: %+v", min.Faults)
	}
	if min.HashBits != 0 || min.WatchdogSCFails != 0 {
		t.Errorf("irrelevant knobs survived: hashbits=%d wd=%d", min.HashBits, min.WatchdogSCFails)
	}
	if min.Ops > noisy.Ops/2 {
		t.Errorf("ops not shrunk: %d (from %d)", min.Ops, noisy.Ops)
	}
	if !min.StrictPaper {
		t.Error("StrictPaper was dropped but the livelock needs it")
	}
	if min.MaxSteps >= defaultMaxSteps {
		t.Errorf("step budget not tightened: %d", min.MaxSteps)
	}
}

func TestReproRoundTrip(t *testing.T) {
	s := livelockScenario()
	o, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRepro(s, o, "strict-paper HTM abort livelock (paper fig. 11)")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "livelock.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Scenario.ID() != s.withDefaults().ID() {
		t.Fatalf("scenario did not round-trip: %s vs %s", loaded.Scenario.ID(), s.withDefaults().ID())
	}
	ro, err := loaded.Replay()
	if err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if ro.TraceHash != o.TraceHash {
		t.Fatalf("replay hash %016x, recorded %016x", ro.TraceHash, o.TraceHash)
	}

	// Tampering with the pinned hash must make Replay fail loudly.
	loaded.TraceHash = "00000000deadbeef"
	if _, err := loaded.Replay(); err == nil {
		t.Fatal("replay accepted a wrong trace hash")
	}
}

func TestReproRejectsFreeMode(t *testing.T) {
	o := &Outcome{Class: ClassOK}
	if _, err := NewRepro(Scenario{Target: "stack", Scheme: "hst", Mode: ModeFree}, o, ""); err == nil {
		t.Fatal("free-mode repro accepted")
	}
}

func TestSearchRediscoversLivelockAndWritesCSV(t *testing.T) {
	// A tiny fixed-seed search must (a) rediscover the known livelock via
	// its corpus, (b) produce zero unexpected findings on a healthy
	// build, and (c) emit a CSV whose header records the seed.
	rep, err := Search(Options{Seed: 42, Runs: 8, MinimizeBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.KnownLivelocks == 0 {
		t.Fatal("search did not rediscover the strict-paper HTM livelock")
	}
	for _, f := range rep.Findings {
		t.Errorf("unexpected finding: %s — %s (err=%q oracle=%q)",
			f.Scenario.ID(), f.Why, f.Outcome.Err, f.Outcome.OracleErr)
	}
	if rep.Coverage < 2 {
		t.Fatalf("coverage = %d, implausibly low", rep.Coverage)
	}
	var sb strings.Builder
	if err := rep.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "# seed=42\n") {
		t.Fatalf("CSV header missing seed: %q", out[:60])
	}
	if strings.Count(out, "\n") < 8+4 {
		t.Fatalf("CSV too short:\n%s", out)
	}
}

func TestParseClassRoundTrip(t *testing.T) {
	for c := ClassOK; c <= ClassError; c++ {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseClass("nope"); err == nil {
		t.Error("ParseClass accepted junk")
	}
}

// TestWSDequeSpuriousSTREXKeepsTask pins the seed-1 wsdeque scenario the
// 300-run search found: a thief's LL of top fails the owner's STREX on the
// last element under the HST family even though the thief then finds the
// deque empty. An owner that took every failed STREX as a lost race left
// that task unexecuted ("task 48 executed 0 times").
func TestWSDequeSpuriousSTREXKeepsTask(t *testing.T) {
	for _, scheme := range []string{"hst", "hst-weak", "hst-htm"} {
		t.Run(scheme, func(t *testing.T) {
			o, err := RunScenario(Scenario{Target: "wsdeque", Scheme: scheme, Mode: ModeStep,
				Threads: 2, Ops: 64, Seed: 1, QuantumMax: 8})
			if err != nil {
				t.Fatal(err)
			}
			if o.Class != ClassOK {
				t.Fatalf("class = %s (err=%q oracle=%q), want ok", o.Class, o.Err, o.OracleErr)
			}
		})
	}
}
