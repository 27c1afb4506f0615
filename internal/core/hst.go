package core

import (
	"sync/atomic"

	"atomemu/internal/hashtab"
	"atomemu/internal/htm"
	"atomemu/internal/mmu"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

// hashState is the store-test table of the HST family, its only global
// state. hst, hst-htm (through hst) and hst-weak embed it for the watchdog's
// owner report and the table's checkpoint.
type hashState struct{ tab *hashtab.Table }

// HashOwner implements HashOwnerReporter for watchdog diagnostics.
func (h hashState) HashOwner(addr uint32) (uint32, bool) {
	return h.tab.Get(addr), true
}

// Snapshot captures the table. LockBits are dropped, so a stuck hst-weak
// entry lock cannot survive rollback; hst's profiling shadow is not state
// (it feeds a census, not correctness).
func (h hashState) Snapshot() any { return h.tab.Snapshot() }

// Restore re-installs a captured table.
func (h hashState) Restore(mem *mmu.Memory, snap any) {
	if entries, ok := snap.([]uint32); ok {
		h.tab.Restore(entries)
	}
}

// hst is the paper's Hash Table-Based Store Test (§III-A, Fig. 4/5), the
// headline scheme. A flat non-blocking hash table records the thread id of
// the last instrumented access to every (aliased) word:
//
//	LL    x: Htable_set(x, tid); load x
//	store x: store x; if Htable_get(x) != tid: Htable_set(x, tid)
//	SC    x: start_exclusive
//	         if monitor armed and Htable_check(x) == tid: store x; success
//	         end_exclusive
//
// Any store or LL by another thread between the LL and the SC flips the
// entry and fails the SC — strong atomicity. Hash collisions (distinct
// addresses sharing an entry) only cause spurious SC failures, which the
// guest retries; the paper measures them at 2.4% on PARSEC.
//
// The paper's store claims the entry and then writes. Here the store writes
// first and claims after, and only when the entry names another thread. The
// word's write is a sequentially consistent atomic store (an XCHG on amd64),
// the StoreLoad fence that orders it before the entry's load: an LL that
// set the entry before that load is seen, and the entry is claimed from it;
// an LL that set it after loads the new word. An SC waits for the store's
// vCPU to leave its region, so the claim has landed when it checks the
// entry. Claiming first opened a window an LL could arm in on the old value
// and then succeed, losing the store (TestHSTCheckFindsOldOrderLostStore).
// A thread that already owns the entry pays one load, not a second
// exchange; TestHSTExhaustiveInterleavings admits the order.
//
// This is also hst-htm's LL, store and RMW (hstHTM supplies only its SC),
// so hst-htm is write-first too; its claim-first copy lost stores the same
// way (TestHSTHTMCheckFindsOldOrderLostStore). Under hst-htm, tm is set:
// every entry write is announced with NotifyStore (at entryAddr) after
// LL's set and before its load, and after a claim's set; and a store or
// RMW writes and claims under the word's TM store lock (htm.BeginStore).
// An announced entry aborts an SC transaction that read it, and an LL's
// load waits out an SC that is publishing. The store lock is what the
// SC's stop-the-world section is under hst: the SC's commit locks the
// word, so it either publishes before the store writes or validates after
// the claim has moved the entry, and a store never lands between an SC's
// check and its write.
//
// Faithfulness note: like the paper's design, a thread's *own* store to an
// address that collides with its active monitor leaves the entry with its
// own tid and therefore does not break the monitor; the window this opens
// requires self-collision within one LL/SC region and is accepted by the
// paper.
type hst struct {
	plainLoads
	hashState
	cost *CostModel
	// shadow, when non-nil, records the last address stored into each
	// entry so genuine collisions can be counted (profiling only).
	shadow []atomic.Uint32
	// tm is hst-htm's transactional memory, nil under hst.
	tm *htm.TM
	// step, when non-nil, runs before each shared-memory step of LL, Store
	// and RMW, naming the step about to run. Only in-package tests set it,
	// to drive every interleaving of those steps; unset it costs one nil
	// check per site (TestHSTStepHookOverheadGuard).
	step func(ctx Context, site string)
}

// NewHST constructs the HST scheme.
func NewHST(cost *CostModel, tab *hashtab.Table) Scheme {
	return &hst{hashState: hashState{tab}, cost: cost}
}

// NewHSTProfiled constructs HST with collision profiling enabled.
func NewHSTProfiled(cost *CostModel, tab *hashtab.Table) Scheme {
	return &hst{hashState: hashState{tab}, cost: cost, shadow: make([]atomic.Uint32, tab.Len())}
}

func (s *hst) Name() string            { return "hst" }
func (s *hst) Atomicity() Atomicity    { return AtomicityStrong }
func (s *hst) Portable() bool          { return true }
func (s *hst) InstrumentsStores() bool { return true }

// census records a store or LL of addr in the collision shadow.
func (s *hst) census(ctx Context, addr uint32) {
	if prev := s.shadow[s.tab.Index(addr)].Swap(addr); prev != 0 && prev != addr {
		ctx.Stats().HashConflicts++
		ctx.Tracer().Emit(obs.EvHashConflict, addr, uint64(prev))
	}
}

// set writes tid into addr's entry and announces the entry under hst-htm.
func (s *hst) set(addr, tid uint32) {
	s.tab.Set(addr, tid)
	if s.tm != nil {
		s.tm.NotifyStore(s.entryAddr(addr))
	}
}

// claim makes the caller the owner of addr's entry after its write: one
// load, and the set only when the owner changes. Store writes the same
// steps out in place.
func (s *hst) claim(ctx Context, addr uint32) {
	if s.shadow != nil {
		s.census(ctx, addr)
	}
	tid := ctx.TID()
	if s.step != nil {
		s.step(ctx, "claim.load")
	}
	if s.tab.Get(addr) == tid {
		return
	}
	if s.step != nil {
		s.step(ctx, "claim.set")
	}
	s.set(addr, tid)
}

func (s *hst) LL(ctx Context, addr uint32) (uint32, error) {
	ctx.Charge(stats.CompInstrument, s.cost.HashInline)
	if s.shadow != nil {
		s.census(ctx, addr)
	}
	if s.step != nil {
		s.step(ctx, "ll.set")
	}
	s.set(addr, ctx.TID())
	if s.step != nil {
		s.step(ctx, "ll.load")
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

func (s *hst) SC(ctx Context, addr, val uint32) (uint32, error) {
	m := ctx.Monitor()
	defer m.Reset()
	if !m.Active || m.Addr != addr {
		ctx.Tracer().Emit(obs.EvSCFail, addr, obs.SCNoMonitor)
		return 1, nil
	}
	return s.scExclusive(ctx, addr, val, s.cost.HashInline)
}

// scExclusive is the SC's check-and-store in a stop-the-world section,
// charging charge instrument cycles inside it: hst's SC, and hst-htm's
// guaranteed-progress fallback (which charges nothing there).
func (s *hst) scExclusive(ctx Context, addr, val uint32, charge uint64) (uint32, error) {
	ctx.StartExclusive()
	defer ctx.EndExclusive()
	ctx.Charge(stats.CompInstrument, charge)
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

// Store writes the word, then claims its entry (see the type comment for
// why in this order). The claim is claim's body written out: on
// compute_1t the call alone cost about a seventh of guest_mips, and Store
// is the word-store hot path. An owner's store under hst pays one tm check
// for hst-htm's store lock.
func (s *hst) Store(ctx Context, addr, val uint32) error {
	ctx.Charge(stats.CompInstrument, s.cost.HashInline)
	if s.tm != nil {
		return s.storeLocked(ctx, addr, val)
	}
	if s.step != nil {
		s.step(ctx, "store.word")
	}
	if f := ctx.Mem().StoreWord(addr, val); f != nil {
		return f
	}
	if s.shadow != nil {
		s.census(ctx, addr)
	}
	tid := ctx.TID()
	if s.step != nil {
		s.step(ctx, "claim.load")
	}
	if s.tab.Get(addr) == tid {
		return nil
	}
	if s.step != nil {
		s.step(ctx, "claim.set")
	}
	s.tab.Set(addr, tid)
	return nil
}

// storeLocked is hst-htm's Store: the write and the claim, under the
// word's store lock.
func (s *hst) storeLocked(ctx Context, addr, val uint32) error {
	if s.step != nil {
		s.step(ctx, "store.word")
	}
	l := s.tm.BeginStore(addr)
	defer s.tm.EndStore(l)
	if f := ctx.Mem().StoreWord(addr, val); f != nil {
		return f
	}
	s.claim(ctx, addr)
	return nil
}

// RMW writes the word and then claims its entry, as Store does.
func (s *hst) RMW(ctx Context, addr uint32, u mmu.Update) (uint32, error) {
	ctx.Charge(stats.CompInstrument, s.cost.HashInline)
	if s.step != nil {
		s.step(ctx, "rmw.word")
	}
	if s.tm != nil {
		l := s.tm.BeginStore(addr &^ 3)
		defer s.tm.EndStore(l)
	}
	old, f := ctx.Mem().Update(addr, u)
	if f != nil {
		return 0, f
	}
	s.claim(ctx, addr&^3)
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
	hashState
	cost *CostModel
}

// NewHSTWeak constructs the HST-WEAK scheme.
func NewHSTWeak(cost *CostModel, tab *hashtab.Table) Scheme {
	return &hstWeak{hashState: hashState{tab}, cost: cost}
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
