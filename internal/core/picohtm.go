package core

import (
	"errors"
	"fmt"

	"atomemu/internal/htm"
	"atomemu/internal/mmu"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

// picoHTM is PICO's HTM scheme: HTM_xbegin at the LL, HTM_xend at the SC,
// with every guest access in between running transactionally. With no store
// instrumentation it is the fastest correct scheme at low thread counts —
// but, as the paper observes (§III-B, Fig. 11), any emulation work between
// the LL and the SC (a translation-cache miss, a helper, a syscall) lands
// *inside* the transaction and aborts it. Under contention the aborts
// cascade into livelock; the paper reports frequent crashes beyond 8
// threads. The engine reports such a livelock as an EmulationError, the
// analogue of the crashed QEMU run. The streak that counts toward it is
// made of emulation aborts and genuine conflicts only: a transaction that
// meets a slow commit (its host thread descheduled mid-commit) waits for
// it, as a core waits for a hardware commit, instead of aborting (see
// package htm), and the SC's write takes the monitored word's lock already
// committing, so an LL never meets that lock held in flight.
//
// Rollback note: a real HTM abort rewinds the guest to the LL. A DBT cannot
// rewind guest registers mid-block, so after an abort inside the window this
// implementation runs in "doomed" mode — loads and stores go directly to
// memory and the SC is guaranteed to fail, sending the guest back around its
// retry loop. Stores executed doomed are applied directly; LL/SC regions
// write only thread-private scratch before the SC in all the paper's
// workloads, so this matches the fallback-path semantics.
//
// Resilience: with the default policy the livelock is survived instead of
// reported. Retryable aborts at the LL back off and retry (Resilience);
// an abort that retrying cannot fix, or one past the retry budget, ends
// the window as a doomed one does (the LL loads directly, the SC fails)
// and the guest retries it. A streak that reaches the livelock limit,
// where StrictPaper would crash, asks the engine to demote the machine to
// portable HST (Monitor.Demote). The engine swaps the scheme once, with
// the world stopped at the vCPU's next block boundary; the guest's retry
// of the window runs under hst.
type picoHTM struct {
	cost *CostModel
	tm   *htm.TM
	res  Resilience
	// livelockLimit is the number of consecutive aborts after which the
	// scheme declares livelock: StrictPaper reports it, the resilient
	// policy demotes the machine.
	livelockLimit int
}

// NewPicoHTM constructs the PICO-HTM scheme. A nil res means the default
// resilient policy; res.StrictPaper restores the paper's crash-on-livelock
// behavior.
func NewPicoHTM(cost *CostModel, tm *htm.TM, res *Resilience) Scheme {
	var r Resilience
	if res != nil {
		r = *res
	}
	return &picoHTM{cost: cost, tm: tm, res: r, livelockLimit: 48}
}

func (s *picoHTM) Name() string            { return "pico-htm" }
func (s *picoHTM) Atomicity() Atomicity    { return AtomicityStrong }
func (s *picoHTM) Portable() bool          { return false }
func (s *picoHTM) InstrumentsStores() bool { return true }
func (s *picoHTM) InstrumentsLoads() bool  { return true }

func (s *picoHTM) memLoad(ctx Context) func(addr uint32) (uint32, error) {
	return func(addr uint32) (uint32, error) {
		if addr&(1<<31) != 0 {
			// Synthetic emulator-state address (engine.EmulStateAddr):
			// only its version matters for conflict detection.
			return 0, nil
		}
		v, f := ctx.Mem().LoadWord(addr)
		if f != nil {
			return 0, f
		}
		return v, nil
	}
}

func (s *picoHTM) memStore(ctx Context) func(addr, val uint32) error {
	return func(addr, val uint32) error {
		if f := ctx.Mem().StoreWord(addr, val); f != nil {
			return f
		}
		return nil
	}
}

// noteAbort bumps the abort streak and accounts one abort. A streak past
// livelockLimit is livelock: in StrictPaper mode the returned error
// reports it; the resilient policy asks the engine to demote the machine
// (Monitor.Demote) instead.
func (s *picoHTM) noteAbort(ctx Context, reason htm.AbortReason) error {
	m := ctx.Monitor()
	m.AbortStreak++
	chargeHTMAbort(ctx, s.cost, m.Addr, reason)
	if m.AbortStreak <= s.livelockLimit {
		return nil
	}
	if !s.res.StrictPaper {
		m.Demote = true
		return nil
	}
	return &EmulationError{
		Scheme: s.Name(),
		Reason: fmt.Sprintf("livelock: %d consecutive HTM aborts (thread %d)", m.AbortStreak, ctx.TID()),
	}
}

func (s *picoHTM) LL(ctx Context, addr uint32) (uint32, error) {
	m := ctx.Monitor()
	if m.Txn != nil && !m.Txn.Done() {
		// Nested/abandoned LL: the previous transaction is discarded, as a
		// new LL re-arms the monitor.
		m.Txn.AbortNow(htm.ReasonConflict)
	}
	for {
		ctx.Charge(stats.CompHTM, s.cost.HTMBegin)
		txn := s.tm.Begin(ctx.TID(), s.memLoad(ctx))
		v, err := txn.Read(addr)
		if err != nil {
			var ab *htm.Abort
			if errors.As(err, &ab) {
				if lerr := s.noteAbort(ctx, ab.Reason); lerr != nil {
					m.Reset()
					return 0, lerr
				}
				if s.res.StrictPaper || s.res.backoffRetry(ctx, ab.Reason, m.AbortStreak) {
					continue
				}
				// Give the window up: no monitor, so its SC fails and the
				// guest retries it — on hst, if the streak asked for the
				// demotion.
				m.Reset()
				v, f := ctx.Mem().LoadWord(addr)
				if f != nil {
					return 0, f
				}
				return v, nil
			}
			txn.AbortNow(htm.ReasonConflict)
			m.Reset()
			return 0, err
		}
		m.Active = true
		m.Addr = addr
		m.Val = v
		m.Txn = txn
		return v, nil
	}
}

func (s *picoHTM) SC(ctx Context, addr, val uint32) (uint32, error) {
	m := ctx.Monitor()
	txn := m.Txn
	defer m.Reset()
	if !m.Active || m.Addr != addr || txn == nil {
		ctx.Tracer().Emit(obs.EvSCFail, addr, obs.SCNoMonitor)
		return 1, nil
	}
	if txn.Done() {
		// Doomed window: an abort happened between LL and SC (emulation
		// work or a conflicting access). It counts toward livelock.
		reason, _ := txn.AbortReason()
		return s.windowFailed(ctx, addr, reason)
	}
	// The SC's write enters the commit already committing: an LL that
	// meets the monitored word's lock meets a commit and waits for its
	// publish, never an in-flight transaction it would abort against.
	if err := txn.WriteCommit(addr, val, s.memStore(ctx)); err != nil {
		var ab *htm.Abort
		if !errors.As(err, &ab) {
			return 1, err
		}
		return s.windowFailed(ctx, addr, ab.Reason)
	}
	m.AbortStreak = 0
	ctx.Stats().HTMCommits++
	ctx.Charge(stats.CompHTM, s.cost.HTMCommit)
	return 0, nil
}

// windowFailed fails the SC of a window whose transaction aborted. The
// abort counts toward livelock: retries are impossible at the SC (the
// guest rewinds to the LL itself), so the failed SC is the retry. A lone
// abort of any reason — the first pass of a window whose tail block is
// translated inside the transaction — costs one failed SC, not the scheme.
func (s *picoHTM) windowFailed(ctx Context, addr uint32, reason htm.AbortReason) (uint32, error) {
	ctx.Tracer().Emit(obs.EvSCFail, addr, obs.SCTxnDoomed)
	return 1, s.noteAbort(ctx, reason)
}

func (s *picoHTM) Clrex(ctx Context) {
	m := ctx.Monitor()
	if m.Txn != nil && !m.Txn.Done() {
		m.Txn.AbortNow(htm.ReasonConflict)
	}
	m.Reset()
}

func (s *picoHTM) Load(ctx Context, addr uint32) (uint32, error) {
	m := ctx.Monitor()
	if m.Txn != nil && !m.Txn.Done() {
		v, err := m.Txn.Read(addr)
		if err == nil {
			return v, nil
		}
		var ab *htm.Abort
		if !errors.As(err, &ab) {
			return 0, err
		}
		chargeHTMAbort(ctx, s.cost, addr, ab.Reason)
		// Doomed: fall through to a direct read; SC will fail.
	}
	v, f := ctx.Mem().LoadWord(addr)
	if f != nil {
		return 0, f
	}
	return v, nil
}

func (s *picoHTM) LoadB(ctx Context, addr uint32) (uint8, error) {
	// Byte loads inside the window read the containing word
	// transactionally.
	m := ctx.Monitor()
	if m.Txn != nil && !m.Txn.Done() {
		w, err := m.Txn.Read(addr &^ 3)
		if err == nil {
			return uint8(w >> (8 * (addr & 3))), nil
		}
		var ab *htm.Abort
		if !errors.As(err, &ab) {
			return 0, err
		}
		chargeHTMAbort(ctx, s.cost, addr, ab.Reason)
	}
	v, f := ctx.Mem().LoadByte(addr)
	if f != nil {
		return 0, f
	}
	return v, nil
}

func (s *picoHTM) Store(ctx Context, addr, val uint32) error {
	m := ctx.Monitor()
	if m.Txn != nil && !m.Txn.Done() {
		if err := m.Txn.Write(addr, val); err == nil {
			return nil
		} else {
			var ab *htm.Abort
			if !errors.As(err, &ab) {
				return err
			}
			chargeHTMAbort(ctx, s.cost, addr, ab.Reason)
			// Doomed: apply directly below.
		}
	}
	l := s.tm.BeginStore(addr)
	f := ctx.Mem().StoreWord(addr, val)
	s.tm.EndStore(l)
	if f != nil {
		return f
	}
	return nil
}

// RMW inside an open window reads and writes the word transactionally, so
// it commits or aborts with the window like every other access in it.
// Otherwise (no window, or a doomed one) it is a host atomic under the
// word's store lock, as a direct store is.
func (s *picoHTM) RMW(ctx Context, addr uint32, u mmu.Update) (uint32, error) {
	m := ctx.Monitor()
	if m.Txn != nil && !m.Txn.Done() {
		old, err := m.Txn.Read(addr &^ 3)
		if err == nil {
			if err = m.Txn.Write(addr&^3, u.Apply(addr, old)); err == nil {
				return old, nil
			}
		}
		reason := htm.ReasonConflict
		var ab *htm.Abort
		if errors.As(err, &ab) {
			reason = ab.Reason
		}
		chargeHTMAbort(ctx, s.cost, addr, reason)
	}
	l := s.tm.BeginStore(addr &^ 3)
	old, f := ctx.Mem().Update(addr, u)
	s.tm.EndStore(l)
	if f != nil {
		return 0, f
	}
	return old, nil
}

// Snapshot captures the TM slot words (locked words are recorded unlocked:
// their owning transactions belong to parked vCPUs and are aborted before
// any restore).
func (s *picoHTM) Snapshot() any { return s.tm.SnapshotWords() }

// Restore re-installs the slot words. The engine has already aborted every
// live transaction (monitor disarm), so the TM's active count is back at
// zero.
func (s *picoHTM) Restore(mem *mmu.Memory, snap any) {
	if words, ok := snap.([]uint64); ok {
		s.tm.RestoreWords(words)
	}
}
