package adversary

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"atomemu/internal/core"
	"atomemu/internal/faultinject"
	"atomemu/internal/workload"
)

// Options configures a Search. The zero value gets sensible defaults.
type Options struct {
	// Seed drives the whole search: corpus order, schedule seeds and every
	// mutation. The same seed replays the same search.
	Seed uint64
	// Runs bounds how many scenarios are executed (default 64).
	Runs int
	// MaxSteps is the per-scenario step budget (default Scenario default).
	MaxSteps uint64
	// Targets restricts the search to named workloads (default: the six
	// adversary targets — stack plus the five lock-free structures).
	Targets []string
	// Schemes restricts the emulation schemes explored (default: all).
	Schemes []string
	// IncludeFree also explores free-running mode (block chaining, tiered
	// execution). Free findings are re-established in step mode before
	// they count; pure free wedges are recorded but not minimized.
	IncludeFree bool
	// MinimizeBudget bounds the re-runs spent shrinking each finding
	// (default 200; 0 keeps the default, negative disables minimization).
	MinimizeBudget int
	// Log, when non-nil, receives one line per executed scenario.
	Log io.Writer
}

// DefaultTargets is the adversary's standard workload set.
func DefaultTargets() []string {
	return []string{"stack", "msqueue", "wsdeque", "seqlock", "hazard", "futexpc"}
}

func (o Options) withDefaults() Options {
	if o.Runs <= 0 {
		o.Runs = 64
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = defaultMaxSteps
	}
	if len(o.Targets) == 0 {
		o.Targets = DefaultTargets()
	}
	if len(o.Schemes) == 0 {
		o.Schemes = core.SchemeNames()
	}
	if o.MinimizeBudget == 0 {
		o.MinimizeBudget = 200
	}
	return o
}

// Record is one executed scenario with its judged outcome.
type Record struct {
	Index       int
	Scenario    Scenario
	Outcome     *Outcome
	Expected    bool
	Why         string
	NewCoverage bool
}

// Finding is an unexpected failure, optionally with its minimized form.
type Finding struct {
	Record
	// Minimized is the shrunk scenario (nil when minimization was disabled
	// or the failure did not reproduce deterministically in step mode).
	Minimized  *Scenario
	MinOutcome *Outcome
}

// Report summarises a finished search.
type Report struct {
	Seed     uint64
	Runs     int
	Records  []Record
	Findings []Finding
	// KnownLivelocks counts rediscoveries of the expected strict-paper HTM
	// abort livelock (the paper's fig. 11 pathology). CI asserts this is
	// nonzero: the search must find the one bug we know is there.
	KnownLivelocks int
	// Coverage is the number of distinct behaviour signatures observed.
	Coverage int
}

// Search runs a seed-driven, coverage-guided exploration of the scenario
// space and returns everything it executed plus its findings.
func Search(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(int64(opts.Seed ^ 0xda3e39cb94b95bdb)))
	rep := &Report{Seed: opts.Seed, Runs: opts.Runs}

	corpus := seedCorpus(opts)
	seen := make(map[string]bool)
	// pool holds scenarios that produced new coverage: mutation bases.
	pool := append([]Scenario(nil), corpus...)

	for i := 0; i < opts.Runs; i++ {
		var s Scenario
		if i < len(corpus) {
			s = corpus[i]
		} else {
			s = mutate(rng, pool[rng.Intn(len(pool))], opts)
		}
		o, err := RunScenario(s)
		if err != nil {
			// A generated scenario failed validation — a search bug; surface it.
			return nil, fmt.Errorf("adversary: run %d (%s): %w", i, s.ID(), err)
		}
		expected, why := Expectation(s, o)
		key := coverageKey(s, o)
		rec := Record{Index: i, Scenario: s, Outcome: o, Expected: expected, Why: why, NewCoverage: !seen[key]}
		if !seen[key] {
			seen[key] = true
			pool = append(pool, s)
		}
		rep.Records = append(rep.Records, rec)
		if o.Class == ClassLivelock && expected {
			rep.KnownLivelocks++
		}
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "run %3d: %-9s expected=%-5v %s\n", i, o.Class, expected, s.ID())
		}
		if !expected {
			f := Finding{Record: rec}
			if opts.MinimizeBudget > 0 {
				if min, mo, ok := establishAndMinimize(s, o, opts.MinimizeBudget); ok {
					f.Minimized = &min
					f.MinOutcome = mo
				}
			}
			rep.Findings = append(rep.Findings, f)
		}
	}
	rep.Coverage = len(seen)
	return rep, nil
}

// establishAndMinimize re-establishes a finding deterministically in step
// mode (free-mode findings get a step-mode rerun with the same knobs) and
// shrinks it. ok is false when the failure does not reproduce.
func establishAndMinimize(s Scenario, o *Outcome, budget int) (Scenario, *Outcome, bool) {
	s = s.withDefaults()
	if s.Mode != ModeStep {
		s.Mode = ModeStep
		s.ChainBudget = 0
		s.Tiered = false
		ro, err := RunScenario(s)
		if err != nil || !sameSignature(o, ro) {
			return s, nil, false
		}
		o = ro
	}
	min, mo := Minimize(s, o, budget)
	return min, mo, true
}

// seedCorpus builds the deterministic starting scenarios. The very first
// one is the known strict-paper HTM livelock configuration: the search
// must rediscover fig. 11 within any budget that runs at least one
// scenario, which is what the CI smoke job asserts.
func seedCorpus(opts Options) []Scenario {
	base := Scenario{Ops: 64, MaxSteps: opts.MaxSteps, Seed: opts.Seed}
	have := func(scheme string) bool {
		for _, s := range opts.Schemes {
			if s == scheme {
				return true
			}
		}
		return false
	}
	pickScheme := func(prefs ...string) string {
		for _, p := range prefs {
			if have(p) {
				return p
			}
		}
		return opts.Schemes[0]
	}

	var out []Scenario
	firstTarget := opts.Targets[0]
	if htmScheme := pickScheme("pico-htm", "hst-htm"); strings.Contains(htmScheme, "htm") {
		s := base
		s.Target, s.Scheme, s.StrictPaper, s.Threads = firstTarget, htmScheme, true, 12
		out = append(out, s)
	}
	for _, tgt := range opts.Targets {
		strong := pickScheme("hst", "pst", "pico-st")
		for _, v := range []struct {
			scheme  string
			threads int
			strict  bool
			faults  []faultinject.Spec
			wd      int64
		}{
			{strong, 4, false, nil, 0},
			{pickScheme("pico-cas", strong), 8, false, nil, 0},
			{pickScheme("hst-weak", strong), 6, false, nil, 0},
			// Only hst-weak locks hash entries around SC, so the stuck-lock
			// site lives there.
			{pickScheme("hst-weak", strong), 4, false, []faultinject.Spec{{Op: "hash-unlock", Action: "stick-lock", After: 40, Count: 1}}, 4096},
			{pickScheme("hst-htm", "pico-htm", strong), 4, false, []faultinject.Spec{{Op: "txn-commit", Action: "abort", Count: 50}}, 0},
			{strong, 4, false, []faultinject.Spec{{Op: "mem-load", Action: "fault", After: 5000, Count: 1}}, 0},
		} {
			s := base
			s.Target, s.Scheme, s.Threads, s.StrictPaper = tgt, v.scheme, v.threads, v.strict
			s.Faults = v.faults
			s.WatchdogSCFails = v.wd
			if tg, ok := workload.TargetByName(tgt); ok && s.Threads < tg.MinThreads {
				s.Threads = tg.MinThreads
			}
			out = append(out, s)
		}
	}
	return out
}

var threadChoices = []int{1, 2, 3, 4, 6, 8, 12, 16}

// mutate derives a new scenario from a base with 1–2 random edits.
func mutate(rng *rand.Rand, s Scenario, opts Options) Scenario {
	s = s.withDefaults()
	s.Faults = append([]faultinject.Spec(nil), s.Faults...)
	edits := 1 + rng.Intn(2)
	for e := 0; e < edits; e++ {
		switch rng.Intn(12) {
		case 0: // reseed the schedule
			s.Seed = rng.Uint64()
		case 1:
			s.Threads = threadChoices[rng.Intn(len(threadChoices))]
			if tg, ok := workload.TargetByName(s.Target); ok && s.Threads < tg.MinThreads {
				s.Threads = tg.MinThreads
			}
		case 2:
			if rng.Intn(2) == 0 {
				s.Ops *= 2
			} else {
				s.Ops /= 2
			}
			if s.Ops < 16 {
				s.Ops = 16
			}
			if s.Ops > 2048 {
				s.Ops = 2048
			}
		case 3:
			s.Scheme = opts.Schemes[rng.Intn(len(opts.Schemes))]
		case 4:
			s.StrictPaper = !s.StrictPaper
		case 5:
			s.HTMInterference = []uint64{0, 4, 8, 16}[rng.Intn(4)]
		case 6:
			s.HashBits = []uint{0, 6, 10}[rng.Intn(3)]
		case 7:
			s.WatchdogSCFails = []int64{0, 1024, 8192}[rng.Intn(3)]
		case 8:
			s.QuantumMax = []int{1, 2, 4, 8, 16}[rng.Intn(5)]
		case 9: // add a fault rule
			if len(s.Faults) < 3 {
				op := faultinject.Ops[rng.Intn(len(faultinject.Ops))]
				acts := faultinject.ActionsFor(op)
				f := faultinject.Spec{
					Op:     op.String(),
					Action: acts[rng.Intn(len(acts))].String(),
					After:  uint64(rng.Intn(2000)),
					Count:  uint64(1 + rng.Intn(100)),
				}
				if op != faultinject.OpMemLoad && op != faultinject.OpMemStore && rng.Intn(2) == 0 {
					f.TID = uint32(1 + rng.Intn(s.Threads))
				}
				s.Faults = append(s.Faults, f)
			}
		case 10: // drop a fault rule
			if len(s.Faults) > 0 {
				i := rng.Intn(len(s.Faults))
				s.Faults = append(s.Faults[:i], s.Faults[i+1:]...)
			}
		case 11: // toggle free mode to reach the chaining/tiering paths
			if opts.IncludeFree && s.Mode == ModeStep {
				s.Mode = ModeFree
				s.ChainBudget = []int{0, 8, 32}[rng.Intn(3)]
				s.Tiered = rng.Intn(2) == 0
			} else {
				s.Mode = ModeStep
				s.ChainBudget = 0
				s.Tiered = false
			}
		}
	}
	return s
}

// coverageKey signatures a run's behaviour for novelty detection: the
// shape of the configuration plus log2-bucketed event counts and the set
// of SC-failure reasons observed.
func coverageKey(s Scenario, o *Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s|%s|t%d|strict%v|f%d", s.Target, s.Scheme, s.Mode, o.Class, s.Threads, s.StrictPaper, len(s.Faults))
	for _, k := range []string{"sc_fails", "hash_conflicts", "htm_aborts", "scheme_fallbacks", "watchdog_trips", "excl_sections"} {
		fmt.Fprintf(&b, "|%s=%d", k, log2bucket(o.Census[k]))
	}
	var reasons []string
	for k := range o.Census {
		if strings.HasPrefix(k, "sc_fail_") {
			reasons = append(reasons, strings.TrimPrefix(k, "sc_fail_"))
		}
	}
	sort.Strings(reasons)
	b.WriteString("|r:" + strings.Join(reasons, ","))
	fired := 0
	for _, rs := range o.RuleStats {
		if rs.Fired > 0 {
			fired++
		}
	}
	fmt.Fprintf(&b, "|fired%d", fired)
	return b.String()
}

func log2bucket(v uint64) int {
	b := 0
	for v > 0 {
		v >>= 1
		b++
	}
	return b
}

// WriteCSV emits the full run log with a commented header recording the
// search seed, so any row can be replayed.
func (r *Report) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# seed=%d\n# runs=%d\n# findings=%d known_livelocks=%d coverage=%d\n",
		r.Seed, r.Runs, len(r.Findings), r.KnownLivelocks, r.Coverage); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "idx,target,scheme,mode,threads,ops,sched_seed,quantum,strict,faults,class,expected,why,steps,trace_hash,sc_fails,htm_aborts,new_coverage,oracle_err"); err != nil {
		return err
	}
	for _, rec := range r.Records {
		s, o := rec.Scenario, rec.Outcome
		var fs []string
		for _, f := range s.Faults {
			fs = append(fs, f.String())
		}
		_, err := fmt.Fprintf(w, "%d,%s,%s,%s,%d,%d,%d,%d,%v,%s,%s,%v,%s,%d,%016x,%d,%d,%v,%s\n",
			rec.Index, s.Target, s.Scheme, s.Mode, s.Threads, s.Ops, s.Seed, s.QuantumMax, s.StrictPaper,
			csvQuote(strings.Join(fs, ";")), o.Class, rec.Expected, csvQuote(rec.Why), o.Steps, o.TraceHash,
			o.Census["sc_fails"], o.Census["htm_aborts"], rec.NewCoverage, csvQuote(o.OracleErr))
		if err != nil {
			return err
		}
	}
	return nil
}

// csvQuote keeps free-text fields on one comma-free token.
func csvQuote(s string) string {
	s = strings.ReplaceAll(s, ",", ";")
	s = strings.ReplaceAll(s, "\n", " ")
	return s
}
