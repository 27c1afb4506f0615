package workload

import (
	"strings"
	"testing"

	"atomemu/internal/core"
	"atomemu/internal/engine"
)

func TestTargetsWellFormed(t *testing.T) {
	ts := Targets()
	names := map[string]bool{}
	for _, tg := range ts {
		if tg.Name == "" || tg.Desc == "" || tg.Build == nil {
			t.Errorf("target %q incomplete", tg.Name)
		}
		if names[tg.Name] {
			t.Errorf("duplicate target %q", tg.Name)
		}
		names[tg.Name] = true
		if _, err := tg.Build(0x10000); err != nil {
			t.Errorf("%s does not build: %v", tg.Name, err)
		}
	}
	for _, want := range []string{"stack", "msqueue", "wsdeque", "seqlock", "hazard", "futexpc"} {
		if !names[want] {
			t.Errorf("missing target %q", want)
		}
	}
	if _, ok := TargetByName("msqueue"); !ok {
		t.Error("TargetByName(msqueue) failed")
	}
	if _, ok := TargetByName("doom"); ok {
		t.Error("unexpected target found")
	}
}

// runTarget executes a target under a scheme and applies its oracle.
// A non-nil error is the oracle's verdict (or a crash); exit-code 2
// (a guest's own "structure wedged" bail) is folded into the verdict.
func runTarget(tg Target, scheme string, threads, ops int) error {
	inst, err := tg.Build(0x10000)
	if err != nil {
		return err
	}
	cfg := engine.DefaultConfig(scheme)
	cfg.MaxGuestInstrs = 1_000_000_000
	m, err := engine.NewMachine(cfg)
	if err != nil {
		return err
	}
	if err := m.LoadImage(inst.Image); err != nil {
		return err
	}
	if inst.Setup != nil {
		if err := inst.Setup(m.Mem(), threads, ops); err != nil {
			return err
		}
	}
	if inst.Barrier != nil {
		if addr, n := inst.Barrier(threads); n > 0 {
			m.InitBarrier(addr, n)
		}
	}
	for i := 0; i < threads; i++ {
		if _, err := m.SpawnThread(inst.Entry, inst.Args(i, threads, ops)); err != nil {
			return err
		}
	}
	if err := m.Run(); err != nil {
		return err
	}
	if err := inst.Verify(m.Mem(), threads, ops); err != nil {
		return err
	}
	for _, c := range m.CPUs() {
		if code := c.ExitCode(); code != 0 {
			return &exitError{tid: c.TID(), code: code}
		}
	}
	return nil
}

type exitError struct {
	tid  uint32
	code uint32
}

func (e *exitError) Error() string {
	return "thread exited nonzero"
}

func TestLockfreeTargetsRunAndVerify(t *testing.T) {
	// Every adversary target under the reference strong scheme: the oracle
	// must hold, so any failure here is a workload bug, not a finding.
	cases := []struct {
		name         string
		threads, ops int
	}{
		{"stack", 4, 200},
		{"msqueue", 4, 200},
		{"wsdeque", 4, 256},
		{"seqlock", 4, 150},
		{"hazard", 4, 100},
		{"futexpc", 4, 120},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tg, ok := TargetByName(tc.name)
			if !ok {
				t.Fatalf("no target %q", tc.name)
			}
			if err := runTarget(tg, "hst", tc.threads, tc.ops); err != nil {
				t.Fatalf("%s under hst: %v", tc.name, err)
			}
		})
	}
}

func TestLockfreeTargetsSingleThread(t *testing.T) {
	// Degenerate thread counts exercise the role-assignment edges (a lone
	// writer, an owner with no thieves, one producer + one consumer).
	for _, name := range []string{"stack", "msqueue", "wsdeque", "seqlock", "hazard"} {
		tg, _ := TargetByName(name)
		if err := runTarget(tg, "hst", 1, 50); err != nil {
			t.Errorf("%s single-thread: %v", name, err)
		}
	}
	tg, _ := TargetByName("futexpc")
	if err := runTarget(tg, "hst", 2, 50); err != nil {
		t.Errorf("futexpc two-thread: %v", err)
	}
}

func TestLockfreeTargetsWeakAtomicity(t *testing.T) {
	// The five lock-free targets only ever write their monitored words
	// through SC, so weak atomicity must suffice: an hst-weak oracle
	// failure is a real engine bug, and the adversary treats it as such.
	for _, name := range []string{"msqueue", "wsdeque", "seqlock", "hazard", "futexpc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tg, _ := TargetByName(name)
			threads := 4
			if err := runTarget(tg, "hst-weak", threads, 100); err != nil {
				t.Fatalf("%s under hst-weak: %v", name, err)
			}
		})
	}
}

// TestSpecOraclesAcrossAllSchemes is the cross-scheme oracle matrix: every
// miniparsec program under every emulation scheme at 8 vCPUs, each run
// judged by its Verify oracle. Tier-2 (meaningful under -race); skipped
// with -short to keep quick edit loops snappy.
func TestSpecOraclesAcrossAllSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-scheme oracle matrix skipped in -short mode")
	}
	for _, scheme := range core.SchemeNames() {
		scheme := scheme
		for _, spec := range Specs() {
			spec := spec
			t.Run(scheme+"/"+spec.Name, func(t *testing.T) {
				t.Parallel()
				runProgram(t, spec.Name, scheme, 8, 0.01)
			})
		}
	}
}

func TestTargetDescriptionsMentionOracle(t *testing.T) {
	// Every target description names what its oracle checks — the
	// adversary's reports lean on these strings.
	for _, tg := range Targets() {
		if len(tg.Desc) < 10 || strings.TrimSpace(tg.Desc) != tg.Desc {
			t.Errorf("target %s: implausible description %q", tg.Name, tg.Desc)
		}
	}
}
