package core

import (
	"atomemu/internal/mmu"
	"atomemu/internal/mpk"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

// pstMPK is the Memory-Protection-Keys variant of PST sketched in the
// paper's §VI discussion: instead of an mprotect syscall (kernel entry,
// page-table update, stop-the-world), the LL tags the monitored page with
// one of Intel MPK's 16 protection keys — an unprivileged, thread-local
// operation. Stores to tagged pages trap exactly as under PST (the fault
// cost is unchanged; SIGSEGV is SIGSEGV), but the LL/SC path drops from
// thousands of cycles to a WRPKRU.
//
// The discussion's two predicted limits are modelled faithfully:
//
//   - Only 15 allocatable keys exist. When more pages are monitored
//     concurrently, the scheme falls back to classic PST mprotect for the
//     overflow pages (counted in Stats.ExclSections via ChargeExclusive).
//   - Synchronizing other threads' PKRU views is charged per LL through
//     CostModel.WrPKRU on top of the owner's own register write.
//
// pst-mpk extends the paper's evaluated set; it is an implementation of the
// paper's future-work proposal, not one of its eight measured schemes.
type pstMPK struct {
	pst
	unit *mpk.Unit
}

// NewPSTMPK constructs the MPK-based PST variant.
func NewPSTMPK(cost *CostModel) Scheme {
	s := &pstMPK{
		pst:  pst{cost: cost, pages: make(map[uint32]*pstPage)},
		unit: mpk.New(),
	}
	// A store to a tagged page traps on the hardware's key check: a real
	// SIGSEGV, full fault cost, before any mmu permission is consulted.
	s.trapped = func(addr uint32) bool { return s.unit.KeyOf(addr) != 0 }
	return s
}

func (s *pstMPK) Name() string { return "pst-mpk" }

// mpkState is a page's key bookkeeping, kept on the shared pstPage and
// guarded by its mutex.
type mpkState struct {
	key      uint8
	fallback bool // no key available: classic PST mprotect used
}

// keyed returns the page's MPK state, lazily attached. Caller holds p.pmu.
func (s *pstMPK) keyed(p *pstPage) *mpkState {
	if p.mpk == nil {
		p.mpk = &mpkState{}
	}
	return p.mpk
}

func (s *pstMPK) LL(ctx Context, addr uint32) (uint32, error) {
	s.release2(ctx)
	base := mmu.PageBase(addr)
	p := s.page(base)

	p.pmu.Lock()
	m := ctx.Monitor()
	m.ClearBroken()
	m.Active = true
	m.Addr = addr
	p.monitors[ctx.TID()] = &pstMonitor{addr: addr, mon: m}
	p.refcnt++
	st := s.keyed(p)
	if p.refcnt == 1 {
		p.origPerm = ctx.Mem().PermAt(base)
		if p.origPerm == 0 {
			s.releaseMPKLocked(ctx, base, p, ctx.TID())
			p.pmu.Unlock()
			m.Reset()
			return 0, &mmu.Fault{Addr: addr, Kind: mmu.FaultUnmapped, Access: mmu.AccessLoad}
		}
		if key, ok := s.unit.AllocKey(); ok {
			st.key = key
			st.fallback = false
			s.unit.TagPage(base, key)
			// The owner's WRPKRU plus the cross-thread PKRU propagation
			// the paper's discussion warns about.
			ctx.Charge(stats.CompMProtect, s.cost.WrPKRU)
		} else {
			// Key exhaustion: classic PST for this page.
			st.fallback = true
			if err := ctx.Mem().Protect(base, mmu.PageSize, p.origPerm&^mmu.PermWrite); err != nil {
				s.releaseMPKLocked(ctx, base, p, ctx.TID())
				p.pmu.Unlock()
				m.Reset()
				return 0, err
			}
			p.protected = true
			ctx.Charge(stats.CompMProtect, s.cost.MProtect)
			ctx.ChargeExclusive()
		}
	}
	v, f := ctx.Mem().ReadWordPriv(addr)
	p.pmu.Unlock()
	if f != nil {
		s.release2(ctx)
		return 0, f
	}
	m.Val = v
	return v, nil
}

// releaseMPKLocked drops tid's monitor, untagging the page when the last
// monitor leaves. Caller holds p.pmu.
func (s *pstMPK) releaseMPKLocked(ctx Context, base uint32, p *pstPage, tid uint32) {
	if _, armed := p.monitors[tid]; !armed {
		return
	}
	delete(p.monitors, tid)
	p.refcnt--
	if p.refcnt > 0 {
		return
	}
	st := s.keyed(p)
	if st.fallback {
		if p.protected {
			if err := ctx.Mem().Protect(base, mmu.PageSize, p.origPerm); err == nil {
				p.protected = false
			}
			ctx.Charge(stats.CompMProtect, s.cost.MProtect)
		}
		return
	}
	if st.key != 0 {
		s.unit.UntagPage(base)
		s.unit.FreeKey(st.key)
		st.key = 0
		ctx.Charge(stats.CompMProtect, s.cost.WrPKRU)
	}
}

// release2 drops the vCPU's current monitor (MPK-aware variant of
// pst.release).
func (s *pstMPK) release2(ctx Context) {
	m := ctx.Monitor()
	if !m.Active {
		return
	}
	base := mmu.PageBase(m.Addr)
	if p := s.lookup(base); p != nil {
		p.pmu.Lock()
		s.releaseMPKLocked(ctx, base, p, ctx.TID())
		p.pmu.Unlock()
	}
	m.Reset()
}

func (s *pstMPK) SC(ctx Context, addr, val uint32) (uint32, error) {
	m := ctx.Monitor()
	if !m.Active {
		ctx.Tracer().Emit(obs.EvSCFail, addr, obs.SCNoMonitor)
		return 1, nil
	}
	base := mmu.PageBase(m.Addr)
	p := s.lookup(base)
	if p == nil {
		m.Reset()
		ctx.Tracer().Emit(obs.EvSCFail, addr, obs.SCPageGone)
		return 1, nil
	}
	p.pmu.Lock()
	defer p.pmu.Unlock()
	defer m.Reset()
	st := s.keyed(p)
	if st.fallback {
		ctx.ChargeExclusive()
		ctx.Charge(stats.CompMProtect, 2*s.cost.MProtect)
	} else {
		// Grant-write / restore-deny on the owner's PKRU: two register
		// writes, no kernel, no suspension.
		ctx.Charge(stats.CompMProtect, 2*s.cost.WrPKRU)
	}
	ok := m.Addr == addr && !m.Broken()
	var fault *mmu.Fault
	if ok {
		if fault = p.denied(addr); fault == nil {
			s.breakOthersLocked(p, addr, ctx.TID())
			fault = ctx.Mem().WriteWordPriv(addr, val)
		}
	}
	s.releaseMPKLocked(ctx, base, p, ctx.TID())
	if fault != nil {
		return 1, fault
	}
	if ok {
		return 0, nil
	}
	ctx.Tracer().Emit(obs.EvSCFail, addr, obs.SCMonitorBroken)
	return 1, nil
}

func (s *pstMPK) Clrex(ctx Context) { s.release2(ctx) }

// Restore additionally clears every page tag and returns all keys to the
// pool: tagged pages belong to monitors the restore disarms. The embedded
// pst.Snapshot already covers the key-exhaustion fallback pages (the only
// ones that flip mmu permissions).
func (s *pstMPK) Restore(mem *mmu.Memory, snap any) {
	s.unit.Reset()
	s.pst.Restore(mem, snap)
}
