package core

import (
	"atomemu/internal/mpk"
	"atomemu/internal/stats"
)

// NewPSTMPK constructs the Memory-Protection-Keys variant of PST sketched
// in the paper's §VI discussion: instead of an mprotect syscall (kernel
// entry, page-table update, stop-the-world), the LL tags the monitored
// page with one of Intel MPK's 16 protection keys — an unprivileged,
// thread-local operation. Stores to tagged pages trap exactly as under PST
// (the fault cost is unchanged; SIGSEGV is SIGSEGV), but the LL/SC path
// drops from thousands of cycles to a WRPKRU.
//
// A page's first monitor tags it and charges one WRPKRU (the owner's
// register write plus the cross-thread PKRU propagation the discussion
// warns about); later LLs on the page charge nothing; the last release
// untags it for another WRPKRU. An SC on a keyed page charges two WRPKRUs
// and commits with a privileged write.
//
// Only 15 allocatable keys exist. When more pages are monitored
// concurrently, the overflow pages fall back to pst's mprotect: their
// first monitor charges pst's LL (counted in Stats.ExclSections via
// ChargeExclusive), later LLs nothing, and their SCs and last release
// pst's costs.
//
// pst-mpk extends the paper's evaluated set; it is an implementation of the
// paper's future-work proposal, not one of its eight measured schemes.
func NewPSTMPK(cost *CostModel) Scheme {
	return newPST("pst-mpk", pageGuard{cost: cost, keys: mpk.New()})
}

// armKey tags p for its first monitor and reports whether a key was free.
// Caller holds p.pmu.
func (g pageGuard) armKey(ctx Context, base uint32, p *pstPage) bool {
	key, ok := g.keys.AllocKey()
	if !ok {
		return false
	}
	p.key = key
	g.keys.TagPage(base, key)
	ctx.Charge(stats.CompMProtect, g.cost.WrPKRU)
	return true
}

// disarmKey untags p when its last monitor leaves. Caller holds p.pmu.
func (g pageGuard) disarmKey(ctx Context, base uint32, p *pstPage) {
	g.keys.UntagPage(base)
	g.keys.FreeKey(p.key)
	p.key = 0
	ctx.Charge(stats.CompMProtect, g.cost.WrPKRU)
}
