package engine

import (
	"fmt"

	"atomemu/internal/core"
	"atomemu/internal/mmu"
)

// Validate rejects nonsensical configurations with explicit errors instead
// of letting them surface as obscure faults mid-run (or be silently
// clamped). It validates the effective config — zero-valued sizing fields
// are filled from DefaultConfig exactly as NewMachine will — so a partially
// specified Config is judged by what it will actually run with. NewMachine
// calls it on every construction; the job server calls it again at admission
// so a bad job is refused at the API boundary, before a worker is committed.
//
// The -1 sentinels stay legal: RecoveryAttempts and WatchdogSCFails
// document "negative disables", and -1 is the value that means exactly
// that. Anything below -1 is a sign the caller computed the field wrong,
// not that they wanted it off.
func (cfg Config) Validate() error {
	n := cfg.normalized()
	known := false
	for _, s := range core.SchemeNames() {
		if n.Scheme == s {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("engine: unknown scheme %q (know %v)", n.Scheme, core.SchemeNames())
	}
	// Guest addresses are 32-bit and the store-test table caps at 2^28
	// entries; past that the table cannot be built for any scheme.
	if n.HashBits > 28 {
		return fmt.Errorf("engine: HashBits %d exceeds the 28-bit table limit (guest addresses are 32-bit)", n.HashBits)
	}
	switch n.Scheme {
	case "hst", "hst-weak", "hst-htm":
		if n.HashBits < 4 {
			return fmt.Errorf("engine: HashBits %d below the 4-bit table minimum for scheme %s", n.HashBits, n.Scheme)
		}
	}
	// Two frames is the floor for anything runnable: the runtime trampoline
	// page plus at least one page of guest image.
	if n.MemBytes < 2*mmu.PageSize {
		return fmt.Errorf("engine: MemBytes %d below the two-page minimum (%d)", n.MemBytes, 2*mmu.PageSize)
	}
	if n.RecoveryAttempts < -1 {
		return fmt.Errorf("engine: RecoveryAttempts %d is nonsense (-1 disables recovery)", n.RecoveryAttempts)
	}
	if n.WatchdogSCFails < -1 {
		return fmt.Errorf("engine: WatchdogSCFails %d is nonsense (-1 disables the watchdog)", n.WatchdogSCFails)
	}
	if n.ChainBudget < 0 {
		return fmt.Errorf("engine: negative ChainBudget %d (0 disables chaining)", n.ChainBudget)
	}
	if n.HotThreshold < 1 {
		return fmt.Errorf("engine: HotThreshold %d must be at least 1", n.HotThreshold)
	}
	return nil
}
