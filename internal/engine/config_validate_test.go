package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"atomemu/internal/core"
)

// TestValidateAcceptsDefaults: every scheme's DefaultConfig must validate,
// and so must the zero-sized partial configs normalization fills in.
func TestValidateAcceptsDefaults(t *testing.T) {
	for _, s := range core.SchemeNames() {
		if err := DefaultConfig(s).Validate(); err != nil {
			t.Errorf("DefaultConfig(%q).Validate() = %v", s, err)
		}
		if err := (Config{Scheme: s}).Validate(); err != nil {
			t.Errorf("partial config for %q: %v", s, err)
		}
	}
	// -1 is the documented "disabled" sentinel, not nonsense.
	cfg := DefaultConfig("hst")
	cfg.RecoveryAttempts = -1
	cfg.WatchdogSCFails = -1
	if err := cfg.Validate(); err != nil {
		t.Errorf("-1 sentinels should validate: %v", err)
	}
}

// TestHostYieldCadences: both randomized yield distances are uniform on
// [1, 2*mean] around their fixed means, block quantum and memory-op
// preemption alike.
func TestHostYieldCadences(t *testing.T) {
	m, err := NewMachine(Config{Scheme: "hst", StepMode: true})
	if err != nil {
		t.Fatal(err)
	}
	c := newCPU(m, 1)
	for _, mean := range []uint32{quantumTBs, preemptMemOps} {
		const n = 20000
		sum := 0
		for i := 0; i < n; i++ {
			g := c.nextGap(mean)
			if g < 1 || g > int(2*mean) {
				t.Fatalf("mean %d: gap %d outside [1, %d]", mean, g, 2*mean)
			}
			sum += g
		}
		if avg := float64(sum) / n; avg < 0.95*float64(mean) || avg > 1.05*float64(mean) {
			t.Errorf("mean %d: sample mean %.1f", mean, avg)
		}
	}
}

// TestValidateRejectsNonsense covers the explicit-error cases that used to
// be silently clamped or to surface as obscure mid-run faults.
func TestValidateRejectsNonsense(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"unknown scheme", func(c *Config) { c.Scheme = "qemu" }, "unknown scheme"},
		{"hash bits over address space", func(c *Config) { c.HashBits = 30 }, "28-bit table limit"},
		{"hash bits under table minimum", func(c *Config) { c.HashBits = 2 }, "4-bit table minimum"},
		{"mem below two pages", func(c *Config) { c.MemBytes = 4096 }, "two-page minimum"},
		{"recovery below sentinel", func(c *Config) { c.RecoveryAttempts = -2 }, "-1 disables recovery"},
		{"watchdog below sentinel", func(c *Config) { c.WatchdogSCFails = -2 }, "-1 disables the watchdog"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig("hst")
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
		if _, err := NewMachine(cfg); err == nil {
			t.Errorf("%s: NewMachine accepted an invalid config", tc.name)
		}
	}
}

// TestClassifyStop pins the exit classification shared by cmd/atomemu and
// the job daemon: 2 deadlock, 3 fault/watchdog, 4 recovery exhausted,
// 1 anything else, 0 success. Wrapping must not change the class.
func TestClassifyStop(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want StopClass
	}{
		{"success", nil, StopOK},
		{"deadlock", &core.DeadlockError{}, StopDeadlock},
		{"wrapped deadlock", fmt.Errorf("engine: machine stopped: %w", &core.DeadlockError{}), StopDeadlock},
		{"watchdog", &core.WatchdogError{Scheme: "hst", TID: 1}, StopFault},
		{"emulation", &core.EmulationError{Scheme: "pico-htm", Reason: "livelock"}, StopFault},
		{"exhausted", &RecoveryExhaustedError{Attempts: 3, Err: &core.WatchdogError{}}, StopRecoveryExhausted},
		{"cancelled", context.Canceled, StopError},
		{"deadline", &DeadlineError{TID: 1, Deadline: 10, Clock: 11}, StopError},
		{"plain", errors.New("boom"), StopError},
	}
	for _, tc := range cases {
		if got := ClassifyStop(tc.err); got != tc.want {
			t.Errorf("%s: ClassifyStop = %v, want %v", tc.name, got, tc.want)
		}
	}
	if StopRecoveryExhausted.ExitCode() != 4 || StopDeadlock.ExitCode() != 2 ||
		StopFault.ExitCode() != 3 || StopError.ExitCode() != 1 || StopOK.ExitCode() != 0 {
		t.Error("StopClass exit codes drifted from the documented 0/1/2/3/4 mapping")
	}
	if StopFault.String() != "fault" || StopRecoveryExhausted.String() != "recovery-exhausted" {
		t.Errorf("StopClass names drifted: %v %v", StopFault, StopRecoveryExhausted)
	}
}
