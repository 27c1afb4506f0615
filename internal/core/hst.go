package core

import (
	"sync/atomic"

	"atomemu/internal/hashtab"
	"atomemu/internal/mmu"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

// hst is the paper's Hash Table-Based Store Test (§III-A, Fig. 4/5), the
// headline scheme. A flat non-blocking hash table records the thread id of
// the last instrumented access to every (aliased) word:
//
//	LL    x: Htable_set(x, tid); load x
//	store x: Htable_set(x, tid); store x        (one inline atomic store)
//	SC    x: start_exclusive
//	         if monitor armed and Htable_check(x) == tid: store x; success
//	         end_exclusive
//
// Any store or LL by another thread between the LL and the SC flips the
// entry and fails the SC — strong atomicity. Hash collisions (distinct
// addresses sharing an entry) only cause spurious SC failures, which the
// guest retries; the paper measures them at 2.4% on PARSEC.
//
// Faithfulness note: like the paper's design, a thread's *own* store to an
// address that collides with its active monitor rewrites the entry with its
// own tid and therefore does not break the monitor; the window this opens
// requires self-collision within one LL/SC region and is accepted by the
// paper.
type hst struct {
	plainLoads
	cost *CostModel
	tab  *hashtab.Table
	// shadow, when non-nil, records the last address stored into each
	// entry so genuine collisions can be counted (profiling only).
	shadow []atomic.Uint32
}

// NewHST constructs the HST scheme.
func NewHST(cost *CostModel, tab *hashtab.Table) Scheme {
	return &hst{cost: cost, tab: tab}
}

// NewHSTProfiled constructs HST with collision profiling enabled.
func NewHSTProfiled(cost *CostModel, tab *hashtab.Table) Scheme {
	return &hst{cost: cost, tab: tab, shadow: make([]atomic.Uint32, tab.Len())}
}

func (s *hst) Name() string            { return "hst" }
func (s *hst) Atomicity() Atomicity    { return AtomicityStrong }
func (s *hst) Portable() bool          { return true }
func (s *hst) InstrumentsStores() bool { return true }

func (s *hst) set(ctx Context, addr, tid uint32) {
	if s.shadow != nil {
		if prev := s.shadow[s.tab.Index(addr)].Swap(addr); prev != 0 && prev != addr {
			ctx.Stats().HashConflicts++
			ctx.Tracer().Emit(obs.EvHashConflict, addr, uint64(prev))
		}
	}
	s.tab.Set(addr, tid)
}

func (s *hst) LL(ctx Context, addr uint32) (uint32, error) {
	ctx.Charge(stats.CompInstrument, s.cost.HashInline)
	s.set(ctx, addr, ctx.TID())
	v, f := ctx.Mem().LoadWord(addr)
	if f != nil {
		return 0, f
	}
	m := ctx.Monitor()
	m.Active = true
	m.Addr = addr
	m.Val = v
	return v, nil
}

func (s *hst) SC(ctx Context, addr, val uint32) (uint32, error) {
	m := ctx.Monitor()
	defer m.Reset()
	if !m.Active || m.Addr != addr {
		ctx.Tracer().Emit(obs.EvSCFail, addr, obs.SCNoMonitor)
		return 1, nil
	}
	ctx.StartExclusive()
	defer ctx.EndExclusive()
	ctx.Charge(stats.CompInstrument, s.cost.HashInline)
	if !s.tab.CheckOwner(addr, ctx.TID()) {
		ctx.Tracer().Emit(obs.EvSCFail, addr, obs.SCHashStolen)
		return 1, nil
	}
	if f := ctx.Mem().StoreWord(addr, val); f != nil {
		return 1, f
	}
	return 0, nil
}

func (s *hst) Clrex(ctx Context) { ctx.Monitor().Reset() }

func (s *hst) Store(ctx Context, addr, val uint32) error {
	ctx.Charge(stats.CompInstrument, s.cost.HashInline)
	s.set(ctx, addr, ctx.TID())
	if f := ctx.Mem().StoreWord(addr, val); f != nil {
		return f
	}
	return nil
}

// RMW writes the word first and claims its entry after. An SC runs in an
// exclusive section, which waits for this vCPU to leave its region, so the
// claim has landed by the time any SC checks the entry: a monitor armed
// before the write fails. An LL that slips between the write and the claim
// loads the new value and then loses the entry, a spurious failure the
// guest retries. Claiming first would let such an LL arm on the old value
// and succeed, losing the update.
func (s *hst) RMW(ctx Context, addr uint32, u mmu.Update) (uint32, error) {
	ctx.Charge(stats.CompInstrument, s.cost.HashInline)
	old, f := ctx.Mem().Update(addr, u)
	if f != nil {
		return 0, f
	}
	s.set(ctx, addr&^3, ctx.TID())
	return old, nil
}

// hstWeak is HST-WEAK (§III-C, Fig. 7): the store instrumentation is
// dropped entirely — only LL and SC touch the hash table, and the SC uses
// the entry itself as a tiny lock instead of stopping the world. Conflicts
// among LL/SC pairs are still caught (the entry carries the claiming
// thread's id), but a plain store between LL and SC goes unnoticed: weak
// atomicity, the same level QEMU's PICO-CAS aims for, at far lower cost
// than full HST.
type hstWeak struct {
	noInstrumentation
	cost *CostModel
	tab  *hashtab.Table
}

// NewHSTWeak constructs the HST-WEAK scheme.
func NewHSTWeak(cost *CostModel, tab *hashtab.Table) Scheme {
	return &hstWeak{cost: cost, tab: tab}
}

func (s *hstWeak) Name() string         { return "hst-weak" }
func (s *hstWeak) Atomicity() Atomicity { return AtomicityWeak }
func (s *hstWeak) Portable() bool       { return true }

func (s *hstWeak) LL(ctx Context, addr uint32) (uint32, error) {
	ctx.Charge(stats.CompInstrument, s.cost.HashInline)
	if err := s.claim(ctx, addr); err != nil {
		return 0, err
	}
	v, f := ctx.Mem().LoadWord(addr)
	if f != nil {
		return 0, f
	}
	m := ctx.Monitor()
	m.Active = true
	m.Addr = addr
	m.Val = v
	return v, nil
}

// claim writes tid into addr's entry. SetWait respects a concurrent SC's
// entry lock; overwriting it would let two SCs into their critical
// sections at once. The spin is bounded: a holder that never releases (a
// wedged or faulted vCPU) raises a watchdog diagnostic instead of hanging
// this vCPU forever.
func (s *hstWeak) claim(ctx Context, addr uint32) error {
	if s.tab.SetWait(addr, ctx.TID()) {
		return nil
	}
	budget := s.tab.SpinBudget
	if budget <= 0 {
		budget = hashtab.DefaultSpinBudget
	}
	ctx.Stats().WatchdogTrips++
	ctx.Tracer().Emit(obs.EvWatchdogTrip, addr, uint64(budget))
	return &WatchdogError{
		Scheme:    s.Name(),
		TID:       ctx.TID(),
		Addr:      addr,
		Kind:      "hash-entry lock spin",
		Fails:     uint64(budget),
		HashOwner: s.tab.Get(addr),
		HasOwner:  true,
	}
}

func (s *hstWeak) SC(ctx Context, addr, val uint32) (uint32, error) {
	m := ctx.Monitor()
	defer m.Reset()
	if !m.Active || m.Addr != addr {
		ctx.Tracer().Emit(obs.EvSCFail, addr, obs.SCNoMonitor)
		return 1, nil
	}
	tid := ctx.TID()
	ctx.Charge(stats.CompInstrument, s.cost.HashInline+s.cost.HostAtomic)
	if !s.tab.Lock(addr, tid) {
		// Entry stolen by another thread's LL or SC since our LL.
		ctx.Tracer().Emit(obs.EvSCFail, addr, obs.SCLockStolen)
		return 1, nil
	}
	f := ctx.Mem().StoreWord(addr, val)
	s.tab.Unlock(addr, tid)
	if f != nil {
		return 1, f
	}
	return 0, nil
}

func (s *hstWeak) Clrex(ctx Context) { ctx.Monitor().Reset() }

// RMW takes the entry lock the way SC does. The claim breaks every monitor
// armed before it (their SC's Lock no longer finds their tid), the lock
// keeps SCs out while the word changes, and an LL meanwhile waits in
// SetWait and then loads the new value. Plain stores stay uninstrumented:
// fused atomics are atomic operations, which weak atomicity must order.
func (s *hstWeak) RMW(ctx Context, addr uint32, u mmu.Update) (uint32, error) {
	tid := ctx.TID()
	ctx.Charge(stats.CompInstrument, s.cost.HashInline+s.cost.HostAtomic)
	for {
		if err := s.claim(ctx, addr); err != nil {
			return 0, err
		}
		if s.tab.Lock(addr, tid) {
			break
		}
	}
	old, f := ctx.Mem().Update(addr, u)
	s.tab.Unlock(addr, tid)
	if f != nil {
		return 0, f
	}
	return old, nil
}

// HashOwner implements HashOwnerReporter for watchdog diagnostics.
func (s *hst) HashOwner(addr uint32) (uint32, bool) {
	return s.tab.Get(addr), true
}

// Snapshot captures the store-test table (the scheme's only global state;
// the profiling shadow is excluded — it feeds a census, not correctness).
func (s *hst) Snapshot() any { return s.tab.Snapshot() }

// Restore re-installs a captured table.
func (s *hst) Restore(mem *mmu.Memory, snap any) {
	if entries, ok := snap.([]uint32); ok {
		s.tab.Restore(entries)
	}
}

// Snapshot captures the store-test table; LockBits are dropped so a stuck
// SC entry lock cannot survive rollback.
func (s *hstWeak) Snapshot() any { return s.tab.Snapshot() }

// Restore re-installs a captured table.
func (s *hstWeak) Restore(mem *mmu.Memory, snap any) {
	if entries, ok := snap.([]uint32); ok {
		s.tab.Restore(entries)
	}
}

// HashOwner implements HashOwnerReporter for watchdog diagnostics.
func (s *hstWeak) HashOwner(addr uint32) (uint32, bool) {
	return s.tab.Get(addr), true
}
