package core

import (
	"sync"

	"atomemu/internal/mmu"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

// picoST is the software store-test scheme from PICO: every LL/SC pair
// registers a (thread, address) monitor with a software exclusive flag, and
// *every* regular store runs a helper that looks its address up against all
// active monitors and clears conflicting flags before performing the store.
// All of it happens under one global lock, which — together with the
// helper-call cost on the store fast path — is exactly the overhead the
// paper measures against (stores outnumber LL/SC by 88x–3000x, Table I).
type picoST struct {
	plainLoads
	cost *CostModel

	mu sync.Mutex
	// byAddr maps a monitored address to the monitors armed on it.
	byAddr map[uint32][]*stMonitor
	// byTID maps a thread to its (single) active monitor.
	byTID map[uint32]*stMonitor
}

type stMonitor struct {
	tid   uint32
	addr  uint32
	valid bool
}

// NewPicoST constructs the PICO-ST scheme.
func NewPicoST(cost *CostModel) Scheme {
	return &picoST{
		cost:   cost,
		byAddr: make(map[uint32][]*stMonitor),
		byTID:  make(map[uint32]*stMonitor),
	}
}

func (s *picoST) Name() string            { return "pico-st" }
func (s *picoST) Atomicity() Atomicity    { return AtomicityStrong }
func (s *picoST) Portable() bool          { return true }
func (s *picoST) InstrumentsStores() bool { return true }

// dropLocked removes a thread's monitor from the registry. Caller holds mu.
func (s *picoST) dropLocked(tid uint32) {
	m := s.byTID[tid]
	if m == nil {
		return
	}
	delete(s.byTID, tid)
	mons := s.byAddr[m.addr]
	for i, other := range mons {
		if other == m {
			mons[i] = mons[len(mons)-1]
			mons = mons[:len(mons)-1]
			break
		}
	}
	if len(mons) == 0 {
		delete(s.byAddr, m.addr)
	} else {
		s.byAddr[m.addr] = mons
	}
}

// breakConflictsLocked clears every monitor on addr held by a thread other
// than storer. Caller holds mu.
func (s *picoST) breakConflictsLocked(addr, storer uint32) {
	for _, m := range s.byAddr[addr] {
		if m.tid != storer {
			m.valid = false
		}
	}
}

// chargeLockContention models the convoy on PICO-ST's global monitor lock:
// LL/SC sections serialize on it against every other running thread.
func (s *picoST) chargeLockContention(ctx Context) {
	if n := ctx.RunningCPUs(); n > 1 {
		ctx.Charge(stats.CompExclusive, s.cost.LockContention*uint64(n-1))
	}
}

func (s *picoST) LL(ctx Context, addr uint32) (uint32, error) {
	ctx.Charge(stats.CompInstrument, s.cost.HelperCall)
	s.chargeLockContention(ctx)
	tid := ctx.TID()
	s.mu.Lock()
	s.dropLocked(tid)
	m := &stMonitor{tid: tid, addr: addr, valid: true}
	s.byTID[tid] = m
	s.byAddr[addr] = append(s.byAddr[addr], m)
	v, f := ctx.Mem().LoadWord(addr)
	s.mu.Unlock()
	if f != nil {
		return 0, f
	}
	mon := ctx.Monitor()
	mon.Active = true
	mon.Addr = addr
	mon.Val = v
	return v, nil
}

func (s *picoST) SC(ctx Context, addr, val uint32) (uint32, error) {
	ctx.Charge(stats.CompInstrument, s.cost.HelperCall)
	ctx.Charge(stats.CompExclusive, s.cost.HostAtomic)
	s.chargeLockContention(ctx)
	tid := ctx.TID()
	mon := ctx.Monitor()
	defer mon.Reset()

	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.byTID[tid]
	if m == nil || !m.valid || m.addr != addr || !mon.Active || mon.Addr != addr {
		s.dropLocked(tid)
		ctx.Tracer().Emit(obs.EvSCFail, addr, obs.SCMonitorBroken)
		return 1, nil
	}
	// The SC's own update is a store: it must break other threads' monitors
	// on the same address (they come later in LL/SC order).
	s.breakConflictsLocked(addr, tid)
	s.dropLocked(tid)
	if f := ctx.Mem().StoreWord(addr, val); f != nil {
		return 1, f
	}
	return 0, nil
}

func (s *picoST) Clrex(ctx Context) {
	s.mu.Lock()
	s.dropLocked(ctx.TID())
	s.mu.Unlock()
	ctx.Monitor().Reset()
}

func (s *picoST) Store(ctx Context, addr, val uint32) error {
	_, err := s.RMW(ctx, addr, mmu.Update{Kind: mmu.UpdateXchg, Operand: val})
	return err
}

// RMW is the store test: under the global lock it clears every other
// thread's monitor on the word, then writes. SC holds the same lock from
// its check to its store, so no write lands between them, and an LL after
// the unlock loads the new value.
func (s *picoST) RMW(ctx Context, addr uint32, u mmu.Update) (uint32, error) {
	ctx.Charge(stats.CompInstrument, s.cost.HelperCall)
	ctx.Charge(stats.CompExclusive, s.cost.HostAtomic)
	s.mu.Lock()
	s.breakConflictsLocked(addr&^3, ctx.TID())
	old, f := ctx.Mem().Update(addr, u)
	s.mu.Unlock()
	if f != nil {
		return 0, f
	}
	return old, nil
}

// Snapshot: the registry only holds armed monitors, which are disarmed
// wholesale on restore, so there is nothing to capture.
func (s *picoST) Snapshot() any { return nil }

// Restore empties the monitor registry to match the engine-side disarm of
// every per-vCPU monitor.
func (s *picoST) Restore(mem *mmu.Memory, snap any) {
	s.mu.Lock()
	s.byAddr = make(map[uint32][]*stMonitor)
	s.byTID = make(map[uint32]*stMonitor)
	s.mu.Unlock()
}
