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
	cfg.PreemptMemOps = -1
	if err := cfg.Validate(); err != nil {
		t.Errorf("-1 sentinels should validate: %v", err)
	}
	// QuantumTBs 1 validates and means what it says: a yield point after
	// every block or two (it used to be silently turned into the default).
	cfg.QuantumTBs = 1
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatalf("QuantumTBs 1: %v", err)
	}
	c := newCPU(m, 1)
	for i := 0; i < 100; i++ {
		if g := c.yieldGap(); g < 1 || g > 2 {
			t.Fatalf("QuantumTBs 1: yield gap %d blocks, want 1 or 2", g)
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
		{"zero threads", func(c *Config) { c.MaxThreads = -3 }, "MaxThreads"},
		{"stack region overflow", func(c *Config) { c.MemBytes = 0; c.StackBytes = 1 << 31 }, "overflow the 32-bit address space"},
		{"negative quantum", func(c *Config) { c.QuantumTBs = -1 }, "QuantumTBs"},
		{"recovery below sentinel", func(c *Config) { c.RecoveryAttempts = -2 }, "-1 disables recovery"},
		{"watchdog below sentinel", func(c *Config) { c.WatchdogSCFails = -2 }, "-1 disables the watchdog"},
		{"negative spin budget", func(c *Config) { c.HashSpinBudget = -1 }, "HashSpinBudget"},
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
	// HTM sizing is only meaningful for the HTM-backed schemes.
	htm := DefaultConfig("pico-htm")
	htm.HTMBits = 26
	if err := htm.Validate(); err == nil || !strings.Contains(err.Error(), "HTMBits") {
		t.Errorf("pico-htm HTMBits=26: Validate() = %v, want HTMBits error", err)
	}
	soft := DefaultConfig("pico-cas")
	soft.HTMBits = 26
	if err := soft.Validate(); err != nil {
		t.Errorf("pico-cas ignores HTMBits, Validate() = %v", err)
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
