package core

import (
	"atomemu/internal/mmu"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

// AliasRegionBase is the guest address region PST-REMAP uses for per-thread
// page aliases. The engine keeps it unmapped; thread t's alias page sits at
// AliasRegionBase + t*PageSize.
const AliasRegionBase uint32 = 0x7800_0000

// pstRemap is the remap optimization of PST (§III-E, Fig. 9). The SC avoids
// the stop-the-world around its protection flip: it remaps the monitored
// page to a thread-private alias with write permission, leaving the original
// address unmapped. Any other thread touching the page during the window
// faults with MAPERR and simply waits (the paper: "the pagefault handler of
// mapping error simply waits the completion of SC by locking and
// unlocking"), then retries. After the conditional store the page is mapped
// back read-only and the waiters resume.
type pstRemap struct {
	pst
}

// NewPSTRemap constructs the PST-REMAP scheme.
func NewPSTRemap(cost *CostModel) Scheme {
	s := &pstRemap{pst: pst{cost: cost, pages: make(map[uint32]*pstPage)}}
	s.waitRemap = s.wait
	return s
}

func (s *pstRemap) Name() string           { return "pst-remap" }
func (s *pstRemap) InstrumentsLoads() bool { return true }

func (s *pstRemap) aliasFor(tid uint32) uint32 {
	return AliasRegionBase + tid*mmu.PageSize
}

func (s *pstRemap) SC(ctx Context, addr, val uint32) (uint32, error) {
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

	ok := m.Addr == addr && !m.Broken()
	var fault *mmu.Fault
	if ok {
		fault = p.denied(addr)
		ok = fault == nil
	}
	if ok {
		// The SC's own update breaks other monitors on the same word.
		s.breakOthersLocked(p, addr, ctx.TID())
		// Remap the page to our private alias with write permission; the
		// original address goes unmapped so every other thread's access
		// faults MAPERR and blocks on p.pmu in the handler.
		alias := s.aliasFor(ctx.TID())
		ctx.Charge(stats.CompMProtect, 2*s.cost.Remap)
		p.remapping = true
		if err := ctx.Mem().Remap(base, alias, mmu.PermRW); err != nil {
			p.remapping = false
			s.releaseLocked(ctx, base, p, ctx.TID())
			return 1, err
		}
		fault = ctx.Mem().StoreWord(alias+(addr-base), val)
		// Map back. Protection stays read-only while other monitors remain.
		restore := p.origPerm &^ mmu.PermWrite
		if p.refcnt == 1 { // ours is the last monitor
			restore = p.origPerm
		}
		if err := ctx.Mem().Remap(alias, base, restore); err != nil {
			// The address space is corrupt; surface loudly.
			p.remapping = false
			return 1, &EmulationError{Scheme: s.Name(), Reason: "remap-back failed: " + err.Error()}
		}
		p.remapping = false
		p.protected = restore&mmu.PermWrite == 0
	}
	// Bypass releaseLocked's mprotect: the remap-back above already settled
	// protection. Just drop the monitor.
	if _, armed := p.monitors[ctx.TID()]; armed {
		delete(p.monitors, ctx.TID())
		p.refcnt--
		if !ok && p.refcnt == 0 && p.protected {
			if err := ctx.Mem().Protect(base, mmu.PageSize, p.origPerm); err == nil {
				p.protected = false
			}
			ctx.Charge(stats.CompMProtect, s.cost.MProtect)
		}
	}
	if fault != nil {
		return 1, fault
	}
	if ok {
		return 0, nil
	}
	ctx.Tracer().Emit(obs.EvSCFail, addr, obs.SCMonitorBroken)
	return 1, nil
}

// wait blocks until a remap window on the page closes. Reports whether the
// address belonged to a remapping page (retry) or not (genuine fault).
func (s *pstRemap) wait(ctx Context, base uint32) bool {
	p := s.lookup(base)
	if p == nil {
		return false
	}
	// Lock/unlock: the paper's fault handler "simply waits the completion
	// of SC by locking and unlocking".
	ctx.Charge(stats.CompMProtect, s.cost.PageFault)
	ctx.Stats().PageFaults++
	p.pmu.Lock()
	//lint:ignore SA2001 empty critical section is the point: wait out the SC
	p.pmu.Unlock()
	return true
}

func (s *pstRemap) Load(ctx Context, addr uint32) (uint32, error) {
	for {
		v, f := ctx.Mem().LoadWord(addr)
		if f == nil {
			return v, nil
		}
		if f.Kind == mmu.FaultUnmapped && s.wait(ctx, mmu.PageBase(addr)) {
			continue
		}
		return 0, f
	}
}

func (s *pstRemap) LoadB(ctx Context, addr uint32) (uint8, error) {
	for {
		v, f := ctx.Mem().LoadByte(addr)
		if f == nil {
			return v, nil
		}
		if f.Kind == mmu.FaultUnmapped && s.wait(ctx, mmu.PageBase(addr)) {
			continue
		}
		return 0, f
	}
}
