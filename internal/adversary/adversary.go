// Package adversary is a deterministic, seed-driven search engine for
// atomic-emulation bugs. It composes oracle-bearing guest workloads
// (internal/workload.Targets) with generated interference — fault
// injection schedules, engine knob perturbation, vCPU-count sweeps and
// adversarial thread interleavings — and judges every run with the
// workload's own correctness oracle plus the machine's failure taxonomy.
//
// The package splits into four layers:
//
//   - RunScenario (this file): execute one fully-described Scenario and
//     classify its outcome. In step mode the run is bit-deterministic:
//     the same Scenario always produces the same trace hash.
//   - stepRun (sched.go): the deterministic scheduler that drives a
//     step-mode machine, guest waits included, on one goroutine.
//   - Search (search.go): coverage-guided scenario generation.
//   - Minimize/Repro (minimize.go, repro.go): shrink a failing scenario
//     to a minimal deterministic reproduction and round-trip it as a
//     committed litmus regression.
package adversary

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"atomemu/internal/core"
	"atomemu/internal/engine"
	"atomemu/internal/faultinject"
	"atomemu/internal/mmu"
	"atomemu/internal/obs"
	"atomemu/internal/workload"
)

// Mode selects how a scenario's machine is driven.
type Mode string

const (
	// ModeStep drives every vCPU from one scheduler goroutine with a
	// seeded quantum schedule: fully deterministic, repro-able.
	ModeStep Mode = "step"
	// ModeFree runs the normal goroutine-per-vCPU engine: nondeterministic
	// but it exercises the free-running paths (block chaining, tiering,
	// host preemption) that step mode forces off. Findings from free runs
	// are re-established in step mode before they are minimized.
	ModeFree Mode = "free"
)

// Scenario fully describes one adversary run. Two runs of the same
// step-mode scenario produce identical traces.
type Scenario struct {
	Target  string `json:"target"`
	Scheme  string `json:"scheme"`
	Mode    Mode   `json:"mode"`
	Threads int    `json:"threads"`
	Ops     int    `json:"ops"`
	// Seed drives the step-mode interleaving schedule.
	Seed uint64 `json:"seed"`
	// QuantumMax bounds the steps granted per scheduling decision
	// (0 = default 8). Smaller quanta mean finer interleavings.
	QuantumMax int `json:"quantum_max,omitempty"`
	// MaxSteps bounds total guest instructions (step mode: machine-wide;
	// free mode: per vCPU). Exhausting it classifies the run as a wedge.
	MaxSteps uint64 `json:"max_steps,omitempty"`

	// Engine knob perturbation.
	StrictPaper     bool   `json:"strict_paper,omitempty"`
	HashBits        uint   `json:"hash_bits,omitempty"`
	HTMInterference uint64 `json:"htm_interference,omitempty"`
	WatchdogSCFails int64  `json:"watchdog_sc_fails,omitempty"`
	// ChainBudget and Tiered only matter in ModeFree (step mode forces
	// the IR-bypass paths off).
	ChainBudget int  `json:"chain_budget,omitempty"`
	Tiered      bool `json:"tiered,omitempty"`

	// Faults is the injected fault schedule.
	Faults []faultinject.Spec `json:"faults,omitempty"`
}

// Scenario defaults. maxWorkloadThreads mirrors workload.MaxThreads: the
// targets carry per-thread result slots for at most that many vCPUs.
const (
	defaultQuantumMax  = 8
	defaultMaxSteps    = 400_000
	maxWorkloadThreads = workload.MaxThreads
)

// withDefaults normalizes a scenario in place-free style: zero fields get
// their documented defaults, bounded fields are clamped. Normalization is
// part of the scenario's identity — repros store the normalized form.
func (s Scenario) withDefaults() Scenario {
	if s.Mode == "" {
		s.Mode = ModeStep
	}
	if s.QuantumMax <= 0 {
		s.QuantumMax = defaultQuantumMax
	}
	if s.MaxSteps == 0 {
		s.MaxSteps = defaultMaxSteps
	}
	if s.Threads < 1 {
		s.Threads = 1
	}
	if s.Threads > maxWorkloadThreads {
		s.Threads = maxWorkloadThreads
	}
	if s.Ops <= 0 {
		s.Ops = 64
	}
	return s
}

// ID is a compact human-readable scenario label for CSV rows and logs.
func (s Scenario) ID() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/%s t%d ops%d seed%d q%d", s.Target, s.Scheme, s.Mode, s.Threads, s.Ops, s.Seed, s.QuantumMax)
	if s.StrictPaper {
		b.WriteString(" strict")
	}
	for _, f := range s.Faults {
		b.WriteString(" ")
		b.WriteString(f.String())
	}
	return b.String()
}

// Class is the adversary's outcome taxonomy.
type Class uint8

const (
	// ClassOK: every thread exited cleanly and the oracle held.
	ClassOK Class = iota
	// ClassOracle: threads finished but the workload invariant is violated
	// (or a thread bailed out of a corrupted structure).
	ClassOracle
	// ClassLivelock: an HTM scheme declared abort livelock (EmulationError).
	ClassLivelock
	// ClassWatchdog: the SC-progress or hash-lock watchdog tripped.
	ClassWatchdog
	// ClassDeadlock: the guest deadlock detector fired.
	ClassDeadlock
	// ClassGuestFault: a guest memory fault stopped the machine.
	ClassGuestFault
	// ClassWedge: the step budget ran out before completion — inconclusive
	// (real livelock and scheduler starvation are indistinguishable here).
	ClassWedge
	// ClassError: any other machine error (scheme error, vCPU panic).
	ClassError
)

var classNames = [...]string{
	ClassOK:         "ok",
	ClassOracle:     "oracle",
	ClassLivelock:   "livelock",
	ClassWatchdog:   "watchdog",
	ClassDeadlock:   "deadlock",
	ClassGuestFault: "guest-fault",
	ClassWedge:      "wedge",
	ClassError:      "error",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// ParseClass resolves a class name (repro files).
func ParseClass(s string) (Class, error) {
	for c, n := range classNames {
		if n == s {
			return Class(c), nil
		}
	}
	return 0, fmt.Errorf("adversary: unknown outcome class %q", s)
}

// Outcome is the judged result of one scenario run.
type Outcome struct {
	Class Class
	// Err is the machine's fatal error text, if any.
	Err string
	// OracleErr is the workload oracle's verdict on a finished run.
	OracleErr string
	// Atomicity is what the scheme guarantees (drives expectations).
	Atomicity core.Atomicity
	// Steps is the number of guest instructions actually executed.
	Steps uint64
	// TraceHash fingerprints the merged event trace plus final exit codes;
	// step-mode runs of the same scenario always produce the same hash.
	TraceHash uint64
	// Census counts events and counters for coverage feedback.
	Census map[string]uint64
	// RuleStats reports per-fault-rule match/fire counts (coverage: a rule
	// that never fired explored nothing).
	RuleStats []faultinject.RuleStat
}

// OracleViolated reports whether the workload invariant itself broke (as
// opposed to a machine-level failure).
func (o *Outcome) OracleViolated() bool { return o.OracleErr != "" }

// RunScenario executes one scenario. The returned error covers scenario
// construction problems only (unknown target or scheme, invalid fault
// rule); machine failures and oracle verdicts land in the Outcome.
func RunScenario(s Scenario) (*Outcome, error) {
	s = s.withDefaults()
	tg, ok := workload.TargetByName(s.Target)
	if !ok {
		return nil, fmt.Errorf("adversary: unknown target %q", s.Target)
	}
	if s.Threads < tg.MinThreads {
		s.Threads = tg.MinThreads
	}
	if tg.MaxOps > 0 && s.Ops > tg.MaxOps {
		s.Ops = tg.MaxOps
	}
	inst, err := tg.Build(0x10000)
	if err != nil {
		return nil, fmt.Errorf("adversary: building %s: %w", s.Target, err)
	}
	inj, err := faultinject.FromSpecs(s.Faults)
	if err != nil {
		return nil, fmt.Errorf("adversary: %w", err)
	}

	cfg := engine.DefaultConfig(s.Scheme)
	cfg.TraceEvents = true
	cfg.StrictPaper = s.StrictPaper
	// Zero knobs take the engine defaults (Config.normalized).
	cfg.HashBits = s.HashBits
	cfg.Cost.HTMInterference = s.HTMInterference
	cfg.WatchdogSCFails = s.WatchdogSCFails
	cfg.FaultInjector = inj
	switch s.Mode {
	case ModeStep:
		cfg.StepMode = true
	case ModeFree:
		cfg.ChainBudget = s.ChainBudget
		cfg.Tiered = s.Tiered
		cfg.MaxGuestInstrs = s.MaxSteps
	default:
		return nil, fmt.Errorf("adversary: unknown mode %q", s.Mode)
	}

	m, err := engine.NewMachine(cfg)
	if err != nil {
		return nil, fmt.Errorf("adversary: %w", err)
	}
	if err := m.LoadImage(inst.Image); err != nil {
		return nil, fmt.Errorf("adversary: loading %s: %w", s.Target, err)
	}
	if inst.Setup != nil {
		if err := inst.Setup(m.Mem(), s.Threads, s.Ops); err != nil {
			return nil, fmt.Errorf("adversary: setting up %s: %w", s.Target, err)
		}
	}
	if inst.Barrier != nil {
		if addr, n := inst.Barrier(s.Threads); n > 0 {
			m.InitBarrier(addr, n)
		}
	}
	cpus := make([]*engine.CPU, s.Threads)
	for i := 0; i < s.Threads; i++ {
		c, err := m.SpawnThread(inst.Entry, inst.Args(i, s.Threads, s.Ops))
		if err != nil {
			return nil, fmt.Errorf("adversary: spawning thread %d: %w", i, err)
		}
		cpus[i] = c
	}

	o := &Outcome{Atomicity: m.Scheme().Atomicity()}
	wedged := false
	if s.Mode == ModeStep {
		o.Steps, wedged = stepRun(m, cpus, s.Seed, s.QuantumMax, s.MaxSteps)
	} else {
		_ = m.Run()
		o.Steps = m.AggregateStats().GuestInstrs
	}

	runErr := m.Err()
	switch {
	case wedged || errors.Is(runErr, ErrWedged):
		o.Class = ClassWedge
		o.Err = ErrWedged.Error()
	case runErr != nil:
		o.Class = classifyError(runErr)
		o.Err = runErr.Error()
	default:
		o.Class = ClassOK
		if err := inst.Verify(m.Mem(), s.Threads, s.Ops); err != nil {
			o.Class = ClassOracle
			o.OracleErr = err.Error()
		} else {
			for _, c := range m.CPUs() {
				if code := c.ExitCode(); code != 0 {
					o.Class = ClassOracle
					o.OracleErr = fmt.Sprintf("thread %d bailed with exit code %d (structure wedged or drained)", c.TID(), code)
					break
				}
			}
		}
	}
	o.TraceHash = traceHash(m)
	o.Census = censusOf(m)
	o.RuleStats = cfg.FaultInjector.RuleStats()
	return o, nil
}

// classifyError maps a machine error to the outcome taxonomy.
func classifyError(err error) Class {
	var ee *core.EmulationError
	if errors.As(err, &ee) {
		if strings.Contains(ee.Reason, "livelock") {
			return ClassLivelock
		}
		return ClassError
	}
	var we *core.WatchdogError
	if errors.As(err, &we) {
		return ClassWatchdog
	}
	var dl *core.DeadlockError
	if errors.As(err, &dl) {
		return ClassDeadlock
	}
	var mf *mmu.Fault
	if errors.As(err, &mf) {
		return ClassGuestFault
	}
	var de *engine.DeadlineError
	if errors.As(err, &de) {
		return ClassWedge
	}
	if strings.Contains(err.Error(), "guest instructions") {
		// MaxGuestInstrs exhaustion (ModeFree's step budget).
		return ClassWedge
	}
	return ClassError
}

// Expectation judges an outcome against the paper's known failure
// envelope: is this failure something the modeled system is documented to
// do (the Fig. 11 strict-paper HTM livelock, ABA loss under an
// incorrect-atomicity scheme, starvation under an injected stuck lock) —
// or a genuine finding? The returned reason string explains the verdict.
func Expectation(s Scenario, o *Outcome) (expected bool, why string) {
	s = s.withDefaults()
	switch o.Class {
	case ClassOK:
		return true, "clean run"
	case ClassWedge:
		return true, "inconclusive: step budget exhausted (possible scheduler starvation)"
	case ClassLivelock:
		if s.StrictPaper && strings.Contains(s.Scheme, "htm") {
			return true, "known: fig. 11 strict-paper HTM abort livelock"
		}
		return false, "abort livelock outside the strict-paper HTM envelope"
	case ClassOracle:
		if o.Atomicity == core.AtomicityIncorrect {
			return true, "known: incorrect-atomicity scheme loses ABA updates"
		}
		return false, "oracle violated under a scheme whose atomicity should suffice"
	case ClassWatchdog:
		if len(s.Faults) > 0 {
			return true, "injected fault schedule starves progress (stuck lock / abort storm)"
		}
		if s.WatchdogSCFails > 0 && s.WatchdogSCFails < 1<<17 {
			return true, "watchdog tuned far below its default threshold"
		}
		return false, "watchdog tripped with no injected faults"
	case ClassGuestFault:
		for _, f := range s.Faults {
			if f.Action == "fault" {
				return true, "injected memory fault"
			}
		}
		if o.Atomicity == core.AtomicityIncorrect {
			return true, "structure corrupted by an incorrect-atomicity scheme chased a wild pointer"
		}
		return false, "guest memory fault with no injected fault rules"
	case ClassDeadlock:
		if len(s.Faults) > 0 {
			return true, "injected fault schedule may strand a waiter protocol"
		}
		return false, "guest deadlock under a clean schedule"
	default:
		return false, "engine error: " + o.Err
	}
}

// traceHash fingerprints everything guest-observable about a finished
// run: the merged event trace (stably ordered by the engine) and each
// vCPU's halt state. Step-mode determinism makes this byte-stable.
func traceHash(m *engine.Machine) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, ev := range m.TraceEvents() {
		w64(ev.VT)
		w64(uint64(ev.TID)<<32 | uint64(ev.Addr))
		w64(uint64(ev.Kind)<<32 | uint64(uint32(ev.Arg)))
	}
	for _, c := range m.CPUs() {
		w64(uint64(c.TID())<<32 | uint64(c.ExitCode()))
		st := c.VStats()
		w64(st.GuestInstrs)
	}
	return h.Sum64()
}

// censusOf summarises a run as named counters: the aggregate vCPU stats
// plus an event census (per kind, and per SC-failure reason). The search
// uses it as coverage feedback.
func censusOf(m *engine.Machine) map[string]uint64 {
	agg := m.AggregateStats()
	c := map[string]uint64{
		"guest_instrs":     agg.GuestInstrs,
		"loads":            agg.Loads,
		"stores":           agg.Stores,
		"lls":              agg.LLs,
		"scs":              agg.SCs,
		"sc_fails":         agg.SCFails,
		"hash_conflicts":   agg.HashConflicts,
		"page_faults":      agg.PageFaults,
		"false_sharing":    agg.FalseSharing,
		"htm_commits":      agg.HTMCommits,
		"htm_aborts":       agg.HTMAborts,
		"htm_retries":      agg.HTMRetries,
		"scheme_fallbacks": agg.SchemeFallbacks,
		"watchdog_trips":   agg.WatchdogTrips,
		"excl_sections":    agg.ExclSections,
	}
	for _, ev := range m.TraceEvents() {
		c["ev_"+ev.Kind.String()]++
		if ev.Kind == obs.EvSCFail {
			c["sc_fail_"+obs.SCReasonString(ev.Arg)]++
		}
	}
	return c
}
