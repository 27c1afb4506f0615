package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"atomemu/internal/mmu"
	"atomemu/internal/mpk"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

// pst is the Page Protection-Based Store Test (§III-D, Fig. 8) and the one
// implementation of its whole family. Instead of instrumenting every store,
// the LL guards the page holding the atomic variable so that a store from
// any thread to it takes a page fault, whose handler checks the faulting
// address against the page's armed monitors, breaks the conflicting ones,
// and performs the store. The SC commits under the page lock.
//
// Store instrumentation is therefore free on the fast path (an unguarded
// page stores normally) but each LL/SC pays protection and suspension
// costs, and stores to a guarded page that miss the monitored word pay a
// fault anyway — the paper's "false sharing", which grows with thread
// count.
//
// The variants differ only in their pageGuard: how a page's first monitor
// guards it, how its last release lifts the guard, and how an SC commits
// and what it charges. Everything else — LL, SC, Clrex, the monitor
// release, the write path and its fault handler, Snapshot and Restore — is
// written once here. pst's own guard write-protects the page: every LL
// charges one mprotect plus an exclusive section, including LLs on an
// already-protected page; every SC charges an exclusive section plus two
// mprotects and commits with a privileged write; the last release charges
// the mprotect that lifts the protection.
//
// Mechanically this implementation serializes page state with a per-page
// mutex instead of the engine's stop-the-world (a fault handler running
// inside a vCPU's execution region must never wait on a stopped world), and
// commits through permission-bypassing writes; the paper's suspension and
// mprotect costs are charged through Context.ChargeExclusive and the cost
// model so the timing behaviour matches the measured system.
type pst struct {
	name  string
	guard pageGuard

	mu    sync.Mutex // guards pages map
	pages map[uint32]*pstPage

	// writers counts, per stripe of pages, the writes between their guard
	// check and their mmu write (see RMW).
	writers [pstWriterStripes]pstWriters
}

// pstWriterStripes is the number of page stripes writers are counted in.
// Pages that share a stripe only make an LL wait out each other's writes.
const pstWriterStripes = 64

// pstWriters is one stripe's count, alone on its cache line so writers to
// pages of different stripes do not contend.
type pstWriters struct {
	n atomic.Int32
	_ [60]byte
}

// writersOf returns the count of addr's page stripe.
func (s *pst) writersOf(addr uint32) *atomic.Int32 {
	return &s.writers[addr>>mmu.PageShift%pstWriterStripes].n
}

// waitWriters waits until no write to addr's page stripe is between its
// guard check and its mmu write: the acknowledgement a real mprotect's TLB
// shootdown waits for. Each such write is a few loads and one atomic store
// that neither blocks nor takes a lock, so the wait yields and is short.
func (s *pst) waitWriters(addr uint32) {
	for n := s.writersOf(addr); n.Load() != 0; {
		runtime.Gosched()
	}
}

type pstPage struct {
	pmu       sync.Mutex // serializes monitors, guard state and SC/fault handling
	refcnt    int
	protected bool
	origPerm  mmu.Perm
	monitors  map[uint32]*pstMonitor // tid -> armed monitor
	key       uint8                  // pst-mpk: the page's protection key, 0 when none
}

type pstMonitor struct {
	addr uint32
	mon  *Monitor
}

func newPST(name string, guard pageGuard) *pst {
	return &pst{name: name, guard: guard, pages: make(map[uint32]*pstPage)}
}

// NewPST constructs the PST scheme.
func NewPST(cost *CostModel) Scheme {
	return newPST("pst", pageGuard{cost: cost})
}

func (s *pst) Name() string            { return s.name }
func (s *pst) Atomicity() Atomicity    { return AtomicityStrong }
func (s *pst) Portable() bool          { return true }
func (s *pst) InstrumentsStores() bool { return true }
func (s *pst) InstrumentsLoads() bool  { return s.guard.remap }

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

// releaseLocked removes tid's monitor from p and lifts the guard when the
// last monitor leaves. Caller holds p.pmu.
func (s *pst) releaseLocked(ctx Context, base uint32, p *pstPage, tid uint32) {
	if _, armed := p.monitors[tid]; !armed {
		return
	}
	delete(p.monitors, tid)
	p.refcnt--
	if p.refcnt == 0 {
		s.guard.disarm(ctx, base, p)
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
	first := p.refcnt == 1
	var err error
	if first {
		p.origPerm = ctx.Mem().PermAt(base)
		if p.origPerm == 0 {
			// Unmapped page: fault like the guest load would.
			err = &mmu.Fault{Addr: addr, Kind: mmu.FaultUnmapped, Access: mmu.AccessLoad}
		}
	}
	if err == nil {
		err = s.guard.arm(ctx, base, p, first)
	}
	if err != nil {
		s.releaseLocked(ctx, base, p, ctx.TID())
		p.pmu.Unlock()
		m.Reset()
		return 0, err
	}
	if first {
		// A write that passed its guard check before the page was guarded
		// lands before the load below.
		s.waitWriters(addr)
	}
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
	s.guard.chargeSC(ctx, p)
	ok := m.Addr == addr && !m.Broken()
	var err error
	if ok {
		if f := p.denied(addr); f != nil {
			err = f
		} else {
			// The SC's own update is a store to the variable: it breaks
			// every other thread's monitor on the same word.
			s.breakOthersLocked(p, addr, ctx.TID())
			err = s.guard.commit(ctx, base, p, addr, val)
		}
	}
	s.releaseLocked(ctx, base, p, ctx.TID())
	if err != nil {
		return 1, err
	}
	if ok {
		return 0, nil
	}
	ctx.Tracer().Emit(obs.EvSCFail, addr, obs.SCMonitorBroken)
	return 1, nil
}

func (s *pst) Clrex(ctx Context) { s.release(ctx) }

// denied returns the fault a guest store to addr takes when the page was
// not writable before the scheme guarded it, nil otherwise: the family's
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

// RMW is the family's one guest-write path (Store is an exchange). A write
// to an unguarded page lands through the mmu. A store to a guarded page
// faults — on the mmu's permission check, or before it when the guard
// traps it — and runs the SIGSEGV-handler analogue: under the page lock,
// which every LL and SC on the page also holds, it breaks the other
// threads' monitors on the word and commits with privileges. A monitor
// armed before the handler is broken before its SC can check it; one armed
// after loads the new value. The unguarded path is counted in its page
// stripe's writers from before the guard check to after the mmu write,
// and an LL that guards a page waits the count out before it loads, so a
// write that passed the check before the guard went up lands before the
// LL's load. The count is dropped before anything that takes the page
// lock, which the waiting LL holds. A write that finds the page unmapped
// by an SC's remap window waits it out and retries.
func (s *pst) RMW(ctx Context, addr uint32, u mmu.Update) (uint32, error) {
	w := s.writersOf(addr)
	for {
		w.Add(1)
		if s.guard.trapped(addr) {
			w.Add(-1)
			return s.handleStoreFault(ctx, addr, u)
		}
		old, f := ctx.Mem().Update(addr, u)
		w.Add(-1)
		switch {
		case f == nil:
			return old, nil
		case f.Kind == mmu.FaultProtected:
			return s.handleStoreFault(ctx, addr, u)
		case f.Kind == mmu.FaultUnmapped && s.waitWindow(ctx, addr):
			continue
		}
		return 0, f
	}
}

// handleStoreFault is the fault handler of RMW. A page the scheme does
// not track, or one that was read-only before it was guarded, faults for
// real.
func (s *pst) handleStoreFault(ctx Context, addr uint32, u mmu.Update) (uint32, error) {
	st := ctx.Stats()
	st.PageFaults++
	ctx.Charge(stats.CompMProtect, s.guard.cost.PageFault)
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

// waitWindow blocks until an SC's remap window on addr's page closes and
// reports whether there was one (retry) or not (a genuine fault). Like the
// paper's MAPERR handler it "simply waits the completion of SC by locking
// and unlocking", and it costs a delivered fault.
func (s *pst) waitWindow(ctx Context, addr uint32) bool {
	if !s.guard.remap {
		return false
	}
	p := s.lookup(mmu.PageBase(addr))
	if p == nil {
		return false
	}
	ctx.Charge(stats.CompMProtect, s.guard.cost.PageFault)
	ctx.Stats().PageFaults++
	p.pmu.Lock()
	//lint:ignore SA2001 empty critical section is the point: wait out the SC
	p.pmu.Unlock()
	return true
}

func (s *pst) Load(ctx Context, addr uint32) (uint32, error) {
	return pstLoad(s, ctx, addr, ctx.Mem().LoadWord)
}

func (s *pst) LoadB(ctx Context, addr uint32) (uint8, error) {
	return pstLoad(s, ctx, addr, ctx.Mem().LoadByte)
}

// pstLoad runs a guest load, waiting out remap windows as RMW does.
func pstLoad[T uint8 | uint32](s *pst, ctx Context, addr uint32, load func(uint32) (T, *mmu.Fault)) (T, error) {
	for {
		v, f := load(addr)
		switch {
		case f == nil:
			return v, nil
		case f.Kind == mmu.FaultUnmapped && s.waitWindow(ctx, addr):
			continue
		}
		return 0, f
	}
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

// Restore drops the guards that live outside the mmu, empties the page
// registry and lifts the write protection the memory rollback just
// re-installed: with every monitor disarmed, nobody would ever unguard
// those pages again.
func (s *pst) Restore(mem *mmu.Memory, snap any) {
	if s.guard.keys != nil {
		s.guard.keys.Reset()
	}
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

// pageGuard is how a PST variant guards a page, the one thing the three
// variants do differently: what a page's first monitor does, what its
// last release does, and how an SC commits and what it charges. Its zero
// variant fields give pst itself: mprotect, and a privileged write to
// commit.
type pageGuard struct {
	cost *CostModel
	// keys, when set, tags a page's first monitor with a protection key
	// and falls back to mprotect when none is free (pst-mpk).
	keys *mpk.Unit
	// remap commits an SC by remapping the page to a private alias; the
	// page is unmapped meanwhile, a window that loads and stores wait out
	// (pst-remap).
	remap bool
}

// arm guards p for an LL that has just armed a monitor on it and charges
// that LL; first reports the page's first monitor. An error leaves the
// page unguarded. Caller holds p.pmu.
func (g pageGuard) arm(ctx Context, base uint32, p *pstPage, first bool) error {
	if g.keys != nil {
		if !first || g.armKey(ctx, base, p) {
			return nil
		}
		// Key exhaustion: classic PST for this page.
	}
	if first {
		if err := ctx.Mem().Protect(base, mmu.PageSize, p.origPerm&^mmu.PermWrite); err != nil {
			return err
		}
		p.protected = true
	}
	// The paper's LL: one mprotect syscall plus suspending the other vCPUs.
	ctx.Charge(stats.CompMProtect, g.cost.MProtect)
	ctx.ChargeExclusive()
	return nil
}

// disarm lifts the guard when the page's last monitor leaves. Caller
// holds p.pmu.
func (g pageGuard) disarm(ctx Context, base uint32, p *pstPage) {
	if p.key != 0 {
		g.disarmKey(ctx, base, p)
		return
	}
	if !p.protected {
		return
	}
	if err := ctx.Mem().Protect(base, mmu.PageSize, p.origPerm); err == nil {
		p.protected = false
	}
	ctx.Charge(stats.CompMProtect, g.cost.MProtect)
}

// chargeSC charges an SC that found its page, whether it commits or not.
// Caller holds p.pmu.
func (g pageGuard) chargeSC(ctx Context, p *pstPage) {
	switch {
	case g.remap:
		// Charged by commit, and only when the SC commits.
	case p.key != 0:
		// Grant-write / restore-deny on the owner's PKRU: two register
		// writes, no kernel, no suspension.
		ctx.Charge(stats.CompMProtect, 2*g.cost.WrPKRU)
	default:
		// The paper's SC: exclusive section + two protection flips.
		ctx.ChargeExclusive()
		ctx.Charge(stats.CompMProtect, 2*g.cost.MProtect)
	}
}

// commit lands a successful SC's write of val to addr. Caller holds
// p.pmu.
func (g pageGuard) commit(ctx Context, base uint32, p *pstPage, addr, val uint32) error {
	if g.remap {
		return g.remapCommit(ctx, base, p, addr, val)
	}
	if f := ctx.Mem().WriteWordPriv(addr, val); f != nil {
		return f
	}
	return nil
}

// trapped reports whether a store to addr traps before the mmu sees it:
// a store to a key-tagged page traps on the hardware's key check — a real
// SIGSEGV, full fault cost — before any mmu permission is consulted.
func (g pageGuard) trapped(addr uint32) bool {
	return g.keys != nil && g.keys.KeyOf(addr) != 0
}
