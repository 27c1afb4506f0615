package core

import (
	"atomemu/internal/mmu"
	"atomemu/internal/stats"
)

// AliasRegionBase is the guest address region PST-REMAP uses for per-thread
// page aliases. The engine keeps it unmapped; thread t's alias page sits at
// AliasRegionBase + t*PageSize.
const AliasRegionBase uint32 = 0x7800_0000

// NewPSTRemap constructs PST-REMAP, the remap optimization of PST (§III-E,
// Fig. 9). The SC avoids the stop-the-world around its protection flip: it
// remaps the monitored page to a thread-private alias with write
// permission, leaving the original address unmapped. Any other thread
// touching the page during the window faults with MAPERR and simply waits
// (the paper: "the pagefault handler of mapping error simply waits the
// completion of SC by locking and unlocking"), then retries —
// pst.waitWindow, which is why pst-remap instruments loads. After the
// conditional store the page is mapped back read-only, or with its own
// permissions when the SC's monitor was its last, and the waiters resume.
//
// Its LL and last release are pst's. Its SC charges two remaps, and only
// when it commits; a failed SC that drops the page's last monitor pays
// pst's unprotecting mprotect.
func NewPSTRemap(cost *CostModel) Scheme {
	return newPST("pst-remap", pageGuard{cost: cost, remap: true})
}

// remapCommit is pst-remap's SC write. Caller holds p.pmu.
func (g pageGuard) remapCommit(ctx Context, base uint32, p *pstPage, addr, val uint32) error {
	// Remap the page to our private alias with write permission; the
	// original address goes unmapped so every other thread's access
	// faults MAPERR and blocks on p.pmu in waitWindow.
	alias := AliasRegionBase + ctx.TID()*mmu.PageSize
	ctx.Charge(stats.CompMProtect, 2*g.cost.Remap)
	if err := ctx.Mem().Remap(base, alias, mmu.PermRW); err != nil {
		return err
	}
	fault := ctx.Mem().StoreWord(alias+(addr-base), val)
	// Map back. Protection stays read-only while other monitors remain.
	restore := p.origPerm &^ mmu.PermWrite
	if p.refcnt == 1 { // ours is the last monitor
		restore = p.origPerm
	}
	if err := ctx.Mem().Remap(alias, base, restore); err != nil {
		// The address space is corrupt; surface loudly.
		return &EmulationError{Scheme: "pst-remap", Reason: "remap-back failed: " + err.Error()}
	}
	p.protected = restore&mmu.PermWrite == 0
	if fault != nil {
		return fault
	}
	return nil
}
