package core

import (
	"sync"

	"atomemu/internal/mmu"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

// pst is the Page Protection-Based Store Test (§III-D, Fig. 8). Instead of
// instrumenting every store, the LL write-protects the page holding the
// atomic variable; a store from any thread to that page takes a page fault,
// whose handler checks the faulting address against the page's armed
// monitors, breaks the conflicting ones, and performs the store. The SC runs
// in an exclusive section, flips the protection to commit, and restores it.
//
// Store instrumentation is therefore free on the fast path (an unprotected
// page stores normally) but each LL/SC pays protection-syscall and
// suspension costs, and stores to a protected page that miss the monitored
// word pay a fault anyway — the paper's "false sharing", which grows with
// thread count.
//
// Mechanically this implementation serializes page state with a per-page
// mutex instead of the engine's stop-the-world (a fault handler running
// inside a vCPU's execution region must never wait on a stopped world), and
// commits through permission-bypassing writes; the paper's suspension and
// mprotect costs are charged through Context.ChargeExclusive and the cost
// model so the timing behaviour matches the measured system.
type pst struct {
	plainLoads
	cost *CostModel

	mu    sync.Mutex // guards pages map
	pages map[uint32]*pstPage

	// The two variants' only additions to the write path (RMW):
	// trapped reports a page whose stores trap before the mmu sees them
	// (pst-mpk's key check), and waitRemap waits out an SC's remap window
	// on an unmapped page, reporting whether the page was one of ours
	// (pst-remap). Both are nil for pst.
	trapped   func(addr uint32) bool
	waitRemap func(ctx Context, base uint32) bool
}

type pstPage struct {
	pmu       sync.Mutex // serializes monitors, protection state and SC/fault handling
	refcnt    int
	protected bool
	origPerm  mmu.Perm
	monitors  map[uint32]*pstMonitor // tid -> armed monitor
	remapping bool                   // PST-REMAP: SC remap window open
	mpk       *mpkState              // PST-MPK: key bookkeeping
}

type pstMonitor struct {
	addr uint32
	mon  *Monitor
}

// NewPST constructs the PST scheme.
func NewPST(cost *CostModel) Scheme {
	return &pst{cost: cost, pages: make(map[uint32]*pstPage)}
}

func (s *pst) Name() string            { return "pst" }
func (s *pst) Atomicity() Atomicity    { return AtomicityStrong }
func (s *pst) Portable() bool          { return true }
func (s *pst) InstrumentsStores() bool { return true }

func (s *pst) page(base uint32) *pstPage {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pages[base]
	if p == nil {
		p = &pstPage{monitors: make(map[uint32]*pstMonitor)}
		s.pages[base] = p
	}
	return p
}

func (s *pst) lookup(base uint32) *pstPage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pages[base]
}

// releaseLocked removes tid's monitor from p and restores protection when
// the last monitor leaves. Caller holds p.pmu.
func (s *pst) releaseLocked(ctx Context, base uint32, p *pstPage, tid uint32) {
	if _, armed := p.monitors[tid]; !armed {
		return
	}
	delete(p.monitors, tid)
	p.refcnt--
	if p.refcnt == 0 && p.protected {
		if err := ctx.Mem().Protect(base, mmu.PageSize, p.origPerm); err == nil {
			p.protected = false
		}
		ctx.Charge(stats.CompMProtect, s.cost.MProtect)
	}
}

// breakOthersLocked breaks every monitor on addr's word held by a thread
// other than tid. Caller holds p.pmu.
func (s *pst) breakOthersLocked(p *pstPage, addr, tid uint32) {
	for monTID, pm := range p.monitors {
		if monTID != tid && pm.addr&^3 == addr&^3 {
			pm.mon.Break()
		}
	}
}

// release drops the vCPU's current monitor, if any.
func (s *pst) release(ctx Context) {
	m := ctx.Monitor()
	if !m.Active {
		return
	}
	base := mmu.PageBase(m.Addr)
	if p := s.lookup(base); p != nil {
		p.pmu.Lock()
		s.releaseLocked(ctx, base, p, ctx.TID())
		p.pmu.Unlock()
	}
	m.Reset()
}

func (s *pst) LL(ctx Context, addr uint32) (uint32, error) {
	s.release(ctx)
	base := mmu.PageBase(addr)
	p := s.page(base)

	p.pmu.Lock()
	m := ctx.Monitor()
	m.ClearBroken()
	m.Active = true
	m.Addr = addr
	p.monitors[ctx.TID()] = &pstMonitor{addr: addr, mon: m}
	p.refcnt++
	if !p.protected {
		p.origPerm = ctx.Mem().PermAt(base)
		if p.origPerm == 0 {
			// Unmapped page: undo and fault like the guest load would.
			s.releaseLocked(ctx, base, p, ctx.TID())
			p.pmu.Unlock()
			m.Reset()
			return 0, &mmu.Fault{Addr: addr, Kind: mmu.FaultUnmapped, Access: mmu.AccessLoad}
		}
		if err := ctx.Mem().Protect(base, mmu.PageSize, p.origPerm&^mmu.PermWrite); err != nil {
			s.releaseLocked(ctx, base, p, ctx.TID())
			p.pmu.Unlock()
			m.Reset()
			return 0, err
		}
		p.protected = true
	}
	// The paper's LL: one mprotect syscall plus suspending the other vCPUs.
	ctx.Charge(stats.CompMProtect, s.cost.MProtect)
	ctx.ChargeExclusive()
	v, f := ctx.Mem().ReadWordPriv(addr)
	p.pmu.Unlock()
	if f != nil {
		s.release(ctx)
		return 0, f
	}
	m.Val = v
	return v, nil
}

func (s *pst) SC(ctx Context, addr, val uint32) (uint32, error) {
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
	// The paper's SC: exclusive section + two protection flips.
	ctx.ChargeExclusive()
	ctx.Charge(stats.CompMProtect, 2*s.cost.MProtect)
	ok := m.Addr == addr && !m.Broken()
	var fault *mmu.Fault
	if ok {
		if fault = p.denied(addr); fault == nil {
			// The SC's own update is a store to the variable: it breaks
			// every other thread's monitor on the same word.
			s.breakOthersLocked(p, addr, ctx.TID())
			fault = ctx.Mem().WriteWordPriv(addr, val)
		}
	}
	s.releaseLocked(ctx, base, p, ctx.TID())
	if fault != nil {
		return 1, fault
	}
	if ok {
		return 0, nil
	}
	ctx.Tracer().Emit(obs.EvSCFail, addr, obs.SCMonitorBroken)
	return 1, nil
}

func (s *pst) Clrex(ctx Context) { s.release(ctx) }

// denied returns the fault a guest store to addr takes when the page was
// not writable before the scheme protected it, nil otherwise: the family's
// privileged commits (SC, fault handler) must not grant a write the guest
// never had. Caller holds p.pmu.
func (p *pstPage) denied(addr uint32) *mmu.Fault {
	if p.origPerm&mmu.PermWrite != 0 {
		return nil
	}
	return &mmu.Fault{Addr: addr, Kind: mmu.FaultProtected, Access: mmu.AccessStore}
}

func (s *pst) Store(ctx Context, addr, val uint32) error {
	_, err := s.RMW(ctx, addr, mmu.Update{Kind: mmu.UpdateXchg, Operand: val})
	return err
}

// RMW is the family's one guest-write path (Store is an exchange). A write to an unprotected page lands through the mmu. A protection
// fault runs the SIGSEGV-handler analogue: under the page lock, which every
// LL and SC on the page also holds, it breaks the other threads' monitors
// on the word and commits with privileges. A monitor armed before the
// handler is broken before its SC can check it; one armed after loads the
// new value. The unprotected path is not ordered with the page lock: an LL
// that protects the page between the mmu's permission check and its write
// loads the old value, and its SC can succeed.
func (s *pst) RMW(ctx Context, addr uint32, u mmu.Update) (uint32, error) {
	for {
		if s.trapped != nil && s.trapped(addr) {
			return s.handleStoreFault(ctx, addr, u)
		}
		old, f := ctx.Mem().Update(addr, u)
		switch {
		case f == nil:
			return old, nil
		case f.Kind == mmu.FaultProtected:
			return s.handleStoreFault(ctx, addr, u)
		case f.Kind == mmu.FaultUnmapped && s.waitRemap != nil && s.waitRemap(ctx, mmu.PageBase(addr)):
			continue
		}
		return 0, f
	}
}

// handleStoreFault is the fault handler of RMW. A page the scheme does
// not track, or one that was read-only before it was protected, faults for
// real.
func (s *pst) handleStoreFault(ctx Context, addr uint32, u mmu.Update) (uint32, error) {
	st := ctx.Stats()
	st.PageFaults++
	ctx.Charge(stats.CompMProtect, s.cost.PageFault)
	p := s.lookup(mmu.PageBase(addr))
	if p == nil {
		return 0, &mmu.Fault{Addr: addr, Kind: mmu.FaultProtected, Access: mmu.AccessStore}
	}
	p.pmu.Lock()
	defer p.pmu.Unlock()
	if f := p.denied(addr); f != nil {
		return 0, f
	}
	tid := ctx.TID()
	matched := false
	for monTID, pm := range p.monitors {
		if pm.addr&^3 == addr&^3 {
			matched = true
			if monTID != tid {
				pm.mon.Break()
			}
		}
	}
	if !matched {
		st.FalseSharing++
	}
	old, f := ctx.Mem().UpdatePriv(addr, u)
	if f != nil {
		return 0, f
	}
	return old, nil
}

// pstProtPage records one page the scheme held write-protected at
// checkpoint time, with the permissions to restore once its monitors are
// disarmed.
type pstProtPage struct {
	base uint32
	perm mmu.Perm
}

// Snapshot captures the pages currently write-protected on behalf of armed
// monitors. The monitors themselves are not captured: a restore disarms
// them all, so only the protection state needs undoing.
func (s *pst) Snapshot() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []pstProtPage
	for base, p := range s.pages {
		p.pmu.Lock()
		if p.protected {
			out = append(out, pstProtPage{base: base, perm: p.origPerm})
		}
		p.pmu.Unlock()
	}
	return out
}

// Restore empties the page registry and lifts the write protection the
// memory rollback just re-installed: with every monitor disarmed, nobody
// would ever unprotect those pages again.
func (s *pst) Restore(mem *mmu.Memory, snap any) {
	s.mu.Lock()
	s.pages = make(map[uint32]*pstPage)
	s.mu.Unlock()
	prot, _ := snap.([]pstProtPage)
	for _, pp := range prot {
		// The page was mapped at capture time and the memory rollback has
		// re-mapped it, so this cannot fail.
		_ = mem.Protect(pp.base, mmu.PageSize, pp.perm)
	}
}
