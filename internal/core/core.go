// Package core implements the paper's contribution: the emulation schemes
// that translate guest LL/SC (Load-Link/Store-Conditional) atomic
// instructions onto a host that only offers CAS, while avoiding the ABA
// problem.
//
// Nine schemes are provided: the eight of the paper's Table II and the MPK
// variant its §VI discussion proposes:
//
//	pico-cas   QEMU-4.1's shipping scheme: SC = host CAS on the LL value.
//	           Fast, portable — and incorrect (ABA).
//	pico-st    Software store test: every store runs a helper that checks
//	           and clears other threads' exclusive monitors. Correct, slow.
//	pico-htm   The whole LL…SC region runs in a hardware transaction.
//	           Fast at low thread counts, livelocks as emulation work lands
//	           inside transactions.
//	hst        Hash-table store test (§III-A): LL and every store publish
//	           their thread id into a non-blocking one-word-per-entry hash
//	           table; SC checks ownership inside an exclusive section.
//	           Strong atomicity, portable, fast — the paper's best scheme.
//	hst-weak   HST without store instrumentation (§III-C): SC locks the hash
//	           entry instead of stopping the world. Weak atomicity.
//	hst-htm    HST with the SC critical section as an HTM transaction
//	           (§III-B). Strong atomicity, needs HTM.
//	pst        Page-protection store test (§III-D): LL write-protects the
//	           page of the atomic variable; foreign stores fault and break
//	           the monitor. Strong atomicity, heavy mprotect cost.
//	pst-remap  PST with the SC-side stop-the-world replaced by remapping the
//	           page to a private alias (§III-E).
//	pst-mpk    PST with the LL's mprotect replaced by tagging the page with
//	           a memory-protection key (§VI discussion, not evaluated there).
//
// Schemes plug into the execution engine (internal/engine) through the
// Scheme interface; the engine supplies per-vCPU state and machine services
// through Context.
package core

import (
	"fmt"

	"atomemu/internal/htm"
	"atomemu/internal/mmu"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

// Atomicity classifies how faithfully a scheme enforces LL/SC semantics
// (paper §II-D and Table II).
type Atomicity uint8

// Atomicity levels.
const (
	// AtomicityIncorrect admits the ABA problem even between atomic
	// operations (PICO-CAS).
	AtomicityIncorrect Atomicity = iota
	// AtomicityWeak detects conflicts among LL/SC pairs but not regular
	// stores (HST-WEAK).
	AtomicityWeak
	// AtomicityStrong detects any modification of the synchronization
	// variable during the LL…SC window.
	AtomicityStrong
)

func (a Atomicity) String() string {
	switch a {
	case AtomicityIncorrect:
		return "incorrect"
	case AtomicityWeak:
		return "weak"
	case AtomicityStrong:
		return "strong"
	}
	return "atomicity?"
}

// Monitor is the per-vCPU exclusive-monitor state: the architectural
// lsc_addr/oldval pair plus scheme-private bookkeeping.
type Monitor struct {
	Active bool
	Addr   uint32
	Val    uint32 // value observed by the LL

	// Broken is set by other threads (PST fault handlers) when their store
	// hits the monitored variable. Checked by the owner's SC.
	broken brokenFlag

	// Txn is the open transaction between LL and SC (PICO-HTM).
	Txn *htm.Txn

	// AbortStreak counts consecutive transaction aborts for livelock
	// detection.
	AbortStreak int

	// Rng is the xorshift state behind the HTM schemes' backoff jitter
	// (see Resilience); 0 means not yet seeded. Like AbortStreak it
	// survives Reset: backoff spans many LL/SC windows.
	Rng uint64

	// Demote asks the engine to demote the whole machine to portable HST
	// at this vCPU's next block boundary. Resilient PICO-HTM sets it when
	// the vCPU's abort streak reaches the livelock limit (see Resilience).
	Demote bool
}

// Reset clears the monitor. A still-open transaction is aborted first:
// every SC path (including address-mismatch failures) funnels through
// Reset, and dropping a live Txn would leak its write locks and the TM's
// active count — after which every plain store pays NotifyStore forever.
func (m *Monitor) Reset() {
	if m.Txn != nil && !m.Txn.Done() {
		m.Txn.AbortNow(htm.ReasonConflict)
	}
	m.Active = false
	m.Addr = 0
	m.Val = 0
	m.broken.Store(false)
	m.Txn = nil
}

// Break marks the monitor broken (cross-thread).
func (m *Monitor) Break() { m.broken.Store(true) }

// Broken reports whether another thread broke the monitor.
func (m *Monitor) Broken() bool { return m.broken.Load() }

// ClearBroken resets the broken flag (at LL).
func (m *Monitor) ClearBroken() { m.broken.Store(false) }

// Context is what the execution engine provides to a scheme on every
// LL/SC/store hook invocation. One Context belongs to one vCPU.
type Context interface {
	// TID returns the vCPU's nonzero thread id.
	TID() uint32
	// Mem returns the guest address space.
	Mem() *mmu.Memory
	// Monitor returns this vCPU's exclusive-monitor state.
	Monitor() *Monitor
	// StartExclusive stops the world: it returns once every other vCPU is
	// parked outside its execution region (QEMU's start_exclusive).
	StartExclusive()
	// EndExclusive resumes the world.
	EndExclusive()
	// ChargeExclusive accounts the cost of a stop-the-world section (base +
	// per-running-vCPU) without mechanically stopping the world. The PST
	// schemes use it: their correctness comes from page locks, but the
	// paper's implementations pay thread-suspension costs that must appear
	// in the timing model.
	ChargeExclusive()
	// Stats returns this vCPU's counters.
	Stats() *stats.CPU
	// Charge adds virtual cycles to a cost component.
	Charge(comp stats.Component, cycles uint64)
	// TM returns the machine's transactional memory, or nil when the
	// machine was built without HTM support.
	TM() *htm.TM
	// RunningCPUs returns the number of vCPUs not yet halted, for
	// contention-dependent cost charging.
	RunningCPUs() int
	// Tracer returns this vCPU's event ring, or nil when tracing is off.
	// obs.Ring methods are nil-safe, so call sites emit unconditionally.
	Tracer() *obs.Ring
}

// Scheme is one atomic-instruction emulation strategy.
type Scheme interface {
	// Name returns the scheme's identifier (e.g. "hst", "pico-cas").
	Name() string
	// Atomicity reports the enforcement level (Table II).
	Atomicity() Atomicity
	// Portable reports whether the scheme runs without HTM hardware.
	Portable() bool
	// InstrumentsStores reports whether guest stores must be routed through
	// Store/RMW. When false the engine uses its uninstrumented fast path,
	// like QEMU's; fused atomics go through RMW either way.
	InstrumentsStores() bool
	// InstrumentsLoads reports whether guest loads must be routed through
	// Load/LoadB (PICO-HTM reads inside transactions, PST-REMAP fault
	// waiting).
	InstrumentsLoads() bool

	// LL emulates a guest Load-Link of addr.
	LL(ctx Context, addr uint32) (uint32, error)
	// SC emulates a guest Store-Conditional of val to addr. It returns the
	// architectural status register value: 0 on success, 1 on failure.
	SC(ctx Context, addr, val uint32) (uint32, error)
	// Clrex clears the vCPU's exclusive monitor.
	Clrex(ctx Context)

	// Store emulates an instrumented guest word store.
	Store(ctx Context, addr, val uint32) error
	// RMW applies u at addr as one atomic guest write and returns the
	// word's previous value. It is the scheme's only write path besides
	// Store: instrumented byte stores and fused atomics (§VI) both come
	// here, so it must break other threads' monitors on the word exactly as
	// Store does.
	RMW(ctx Context, addr uint32, u mmu.Update) (old uint32, err error)
	// Load emulates an instrumented guest word load.
	Load(ctx Context, addr uint32) (uint32, error)
	// LoadB emulates an instrumented guest byte load.
	LoadB(ctx Context, addr uint32) (uint8, error)

	// Snapshot captures the scheme's global state (hash-table entries, TM
	// slot words, PST page marks, MPK key tags) for a checkpoint. It must
	// be strictly read-only — a clean run with checkpointing enabled has to
	// stay bit-identical to one without — and is only called at machine
	// quiescence (inside an exclusive section). Stateless schemes return
	// nil.
	Snapshot() any
	// Restore re-installs a state captured by Snapshot on the same scheme
	// instance, again at quiescence, after mem has been rolled back to the
	// same checkpoint. Per-vCPU monitors are NOT part of the snapshot: a
	// restore disarms every monitor, which the architecture permits (an SC
	// may fail spuriously; guests retry from the LL). Restore must leave no
	// entry locked, no transaction live, and no page protected on behalf of
	// a disarmed monitor (the PST family un-protects via mem).
	Restore(mem *mmu.Memory, snap any)
}

// EmulationError reports a scheme-level failure that aborts the guest run —
// the analogue of QEMU crashing or livelocking (the paper's PICO-HTM beyond
// 8 threads). With the default (resilient) configuration PICO-HTM demotes
// the machine to portable HST instead of returning this; StrictPaper mode
// restores it.
type EmulationError struct {
	Scheme string
	Reason string
}

func (e *EmulationError) Error() string {
	return fmt.Sprintf("core: scheme %s failed: %s", e.Scheme, e.Reason)
}

// WatchdogError is the structured diagnostic raised when the progress
// watchdog detects a wedged vCPU (an SC-failure storm with no successes,
// or a hash-entry lock whose holder never releases). It stops the machine
// with enough context to identify the stuck resource instead of hanging.
type WatchdogError struct {
	Scheme      string
	TID         uint32
	Addr        uint32 // last SC address (or locked hash address)
	Kind        string // "sc-failure storm" or "hash-entry lock spin"
	Fails       uint64 // SC failures (or spins) accumulated without progress
	AbortStreak int    // consecutive HTM aborts at trip time, if any
	HashOwner   uint32 // hash-entry owner word, when the scheme has one
	HasOwner    bool
}

func (e *WatchdogError) Error() string {
	s := fmt.Sprintf("core: watchdog: %s on vCPU %d (scheme %s, addr %#08x, %d fails without progress",
		e.Kind, e.TID, e.Scheme, e.Addr, e.Fails)
	if e.AbortStreak > 0 {
		s += fmt.Sprintf(", abort streak %d", e.AbortStreak)
	}
	if e.HasOwner {
		s += fmt.Sprintf(", hash entry owner %#x", e.HashOwner)
	}
	return s + ")"
}

// HashOwnerReporter is implemented by schemes that can report the current
// owner word of an address's hash entry, for watchdog diagnostics.
type HashOwnerReporter interface {
	HashOwner(addr uint32) (uint32, bool)
}

// DeadlockWaiter describes one parked vCPU at deadlock-detection time.
type DeadlockWaiter struct {
	TID  uint32
	Kind string // "futex", "barrier" or "join"
	// Addr is the futex word or barrier cell the vCPU sleeps on; for a
	// join it is the joined thread id.
	Addr uint32
	// Arrived/Total describe the barrier generation for barrier waiters
	// (how many threads have arrived out of how many expected).
	Arrived int
	Total   int
}

func (w DeadlockWaiter) String() string {
	switch w.Kind {
	case "barrier":
		return fmt.Sprintf("vCPU %d barrier@%#08x (%d/%d arrived)", w.TID, w.Addr, w.Arrived, w.Total)
	case "join":
		return fmt.Sprintf("vCPU %d join(tid %d)", w.TID, w.Addr)
	}
	return fmt.Sprintf("vCPU %d %s@%#08x", w.TID, w.Kind, w.Addr)
}

// DeadlockError is the structured diagnostic for a guest deadlock: every
// live vCPU is parked in a blocking syscall (futex wait, barrier, join)
// and no wake can ever arrive. The engine returns it instead of letting
// Run hang forever.
type DeadlockError struct {
	Waiters []DeadlockWaiter
}

func (e *DeadlockError) Error() string {
	s := fmt.Sprintf("core: guest deadlock: all %d runnable vCPUs blocked:", len(e.Waiters))
	for _, w := range e.Waiters {
		s += " [" + w.String() + "]"
	}
	return s
}

// CostModel holds the virtual-cycle charges used by the engine and schemes.
// The defaults are calibrated so the cost *ratios* mirror the paper's
// measured trade-offs: inline IR instrumentation is cheap relative to helper
// calls, stop-the-world scales with thread count, and protection changes
// dwarf everything else per event. See DESIGN.md §4.
type CostModel struct {
	IROp       uint64 // one non-memory IR operation
	MemAccess  uint64 // load/store through the soft MMU
	HostAtomic uint64 // host CAS / atomic RMW
	HashInline uint64 // one inline hash-table set/check (HST family)
	HelperCall uint64 // context switch into an emulator helper (PICO-ST)

	ExclusiveBase   uint64 // entering a stop-the-world section
	ExclusivePerCPU uint64 // per running vCPU that must be parked
	ExclusiveStall  uint64 // charged to each vCPU per section it witnesses
	LockContention  uint64 // per-competitor cost of a contended global lock (PICO-ST LL/SC)

	MProtect  uint64 // one protection syscall
	WrPKRU    uint64 // one protection-key register update (PST-MPK)
	PageFault uint64 // one delivered page fault
	Remap     uint64 // one mremap

	HTMBegin  uint64
	HTMCommit uint64
	HTMAbort  uint64
	// HTMInterference calibrates how violently emulation work interferes
	// with transactions that span block boundaries (PICO-HTM's LL…SC
	// windows): at each boundary inside an open transaction the engine
	// aborts it with probability min(0.95, ((threads-1)/HTMInterference)²),
	// modelling conflicts on QEMU's shared emulator state [paper §III-B,
	// ref 18]. SC-only transactions (HST-HTM) never cross a boundary and
	// are unaffected. A dimensionless divisor, not a cycle charge; the
	// engine takes 0 as the default.
	HTMInterference uint64

	SyscallBase uint64 // guest syscall entry/exit
	TBLookup    uint64 // translation-cache hit
	TBTranslate uint64 // per guest instruction translated (decode→IR→optimize)
	TBDecode    uint64 // per guest instruction of a cold (unoptimized) translation

	// Checkpoint capture costs, charged to the checkpoint component only —
	// never the guest-visible clock — so enabling checkpoints leaves a
	// clean run's virtual times untouched.
	CheckpointBase uint64 // one capture (bookkeeping + scheme snapshot)
	CheckpointPage uint64 // per dirty page frame copied into the capture
}

// DefaultCostModel returns the calibrated defaults.
func DefaultCostModel() CostModel {
	return CostModel{
		IROp:            10,
		MemAccess:       30,
		HostAtomic:      40,
		HashInline:      3,
		HelperCall:      60,
		ExclusiveBase:   400,
		ExclusivePerCPU: 60,
		ExclusiveStall:  150,
		LockContention:  25,
		MProtect:        4000,
		WrPKRU:          60,
		PageFault:       8000,
		Remap:           2500,
		HTMBegin:        60,
		HTMCommit:       40,
		HTMAbort:        300,
		HTMInterference: 16,
		SyscallBase:     1500,
		TBLookup:        12,
		TBTranslate:     400,
		TBDecode:        80,
		CheckpointBase:  5000,
		CheckpointPage:  800,
	}
}

// Deps carries the substrate objects a scheme may need.
type Deps struct {
	Cost *CostModel
	Htab *HashTable  // HST family store-test table
	TM   *htm.TM     // HTM schemes
	Res  *Resilience // HTM abort policy; nil means the default policy
}

// SchemeNames lists every implemented scheme in the paper's presentation
// order.
func SchemeNames() []string {
	return []string{
		"pico-cas", "pico-st", "pico-htm",
		"hst", "hst-weak", "hst-htm",
		"pst", "pst-remap", "pst-mpk",
	}
}

// New constructs a scheme by name.
func New(name string, deps Deps) (Scheme, error) {
	if deps.Cost == nil {
		cm := DefaultCostModel()
		deps.Cost = &cm
	}
	switch name {
	case "pico-cas":
		return NewPicoCAS(deps.Cost), nil
	case "pico-st":
		return NewPicoST(deps.Cost), nil
	case "pico-htm":
		if deps.TM == nil {
			return nil, fmt.Errorf("core: scheme pico-htm needs a TM")
		}
		return NewPicoHTM(deps.Cost, deps.TM, deps.Res), nil
	case "hst":
		if deps.Htab == nil {
			return nil, fmt.Errorf("core: scheme hst needs a hash table")
		}
		return NewHST(deps.Cost, deps.Htab), nil
	case "hst-weak":
		if deps.Htab == nil {
			return nil, fmt.Errorf("core: scheme hst-weak needs a hash table")
		}
		return NewHSTWeak(deps.Cost, deps.Htab), nil
	case "hst-htm":
		if deps.Htab == nil || deps.TM == nil {
			return nil, fmt.Errorf("core: scheme hst-htm needs a hash table and a TM")
		}
		return NewHSTHTM(deps.Cost, deps.Htab, deps.TM, deps.Res), nil
	case "pst":
		return NewPST(deps.Cost), nil
	case "pst-remap":
		return NewPSTRemap(deps.Cost), nil
	case "pst-mpk":
		// The §VI-discussion MPK variant (an extension beyond the paper's
		// evaluated eight).
		return NewPSTMPK(deps.Cost), nil
	}
	return nil, fmt.Errorf("core: unknown scheme %q (know %v)", name, SchemeNames())
}
