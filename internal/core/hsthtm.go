package core

import (
	"errors"

	"atomemu/internal/hashtab"
	"atomemu/internal/htm"
	"atomemu/internal/mmu"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

// hstHTM is HST-HTM (§III-B, Fig. 6): identical instrumentation to HST, but
// the SC's check-and-update critical section runs as a hardware transaction
// instead of a stop-the-world exclusive section. Crucially — and unlike
// PICO-HTM — only the SC emulation itself is transactional, so no QEMU
// emulation work can land inside the transaction and livelock it.
//
// The transaction's footprint is the hash entry plus the guest word. Hash
// entries are mapped into the transactional address space at
// entrySpaceBit|index<<2; the plain-store path publishes entry updates
// through TM.NotifyStore at that synthetic address, which is how a
// conflicting store aborts an in-flight SC, and how an LL that claims the
// entry while an SC commits waits for that SC's publish before it loads.
// Resilience: the default policy replaces the fixed attempt count with
// reason-aware backoff — retryable aborts wait (exponential + per-tid
// jitter) before re-issuing the transaction, non-retryable aborts and an
// exhausted budget demote the monitor, after which SCs go straight to the
// stop-the-world fallback for a cooldown's worth of windows instead of
// burning a fresh abort storm each time. StrictPaper keeps the original
// fixed-count behavior.
type hstHTM struct {
	plainLoads
	cost *CostModel
	tab  *hashtab.Table
	tm   *htm.TM
	res  Resilience
	// fallbackAfter is the abort count after which the SC falls back to
	// the stop-the-world path (StrictPaper's forward progress guarantee).
	fallbackAfter int
}

// entrySpaceBit distinguishes hash-table entries from guest addresses in
// the transactional address space. Guest images must stay below 2 GiB when
// an HTM scheme is active (the engine's default layout does).
const entrySpaceBit uint32 = 1 << 31

// NewHSTHTM constructs the HST-HTM scheme. A nil res means the default
// resilient policy; res.StrictPaper restores the fixed-count fallback.
func NewHSTHTM(cost *CostModel, tab *hashtab.Table, tm *htm.TM, res *Resilience) Scheme {
	r := DefaultResilience()
	if res != nil {
		r = res.normalized()
	}
	return &hstHTM{cost: cost, tab: tab, tm: tm, res: r, fallbackAfter: 8}
}

func (s *hstHTM) Name() string            { return "hst-htm" }
func (s *hstHTM) Atomicity() Atomicity    { return AtomicityStrong }
func (s *hstHTM) Portable() bool          { return false }
func (s *hstHTM) InstrumentsStores() bool { return true }

func (s *hstHTM) entryAddr(addr uint32) uint32 {
	return entrySpaceBit | s.tab.Index(addr)<<2
}

// txLoad dispatches transactional reads to the hash table or guest memory.
func (s *hstHTM) txLoad(ctx Context) func(addr uint32) (uint32, error) {
	return func(addr uint32) (uint32, error) {
		if addr&entrySpaceBit != 0 {
			return s.tab.LoadIndex(addr &^ entrySpaceBit >> 2), nil
		}
		v, f := ctx.Mem().LoadWord(addr)
		if f != nil {
			return 0, f
		}
		return v, nil
	}
}

// txStore dispatches transactional commits.
func (s *hstHTM) txStore(ctx Context) func(addr, val uint32) error {
	return func(addr, val uint32) error {
		if addr&entrySpaceBit != 0 {
			s.tab.StoreIndex(addr&^entrySpaceBit>>2, val)
			return nil
		}
		if f := ctx.Mem().StoreWord(addr, val); f != nil {
			return f
		}
		return nil
	}
}

func (s *hstHTM) setAndNotify(addr, tid uint32) {
	s.tab.Set(addr, tid)
	s.tm.NotifyStore(entrySpaceBit | s.tab.Index(addr)<<2)
}

func (s *hstHTM) LL(ctx Context, addr uint32) (uint32, error) {
	ctx.Charge(stats.CompInstrument, s.cost.HashInline)
	s.setAndNotify(addr, ctx.TID())
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

// scFallback is the HST stop-the-world critical section — the portable
// guaranteed-progress path.
func (s *hstHTM) scFallback(ctx Context, addr, val, tid uint32) (uint32, error) {
	ctx.StartExclusive()
	defer ctx.EndExclusive()
	if !s.tab.CheckOwner(addr, tid) {
		ctx.Tracer().Emit(obs.EvSCFail, addr, obs.SCHashStolen)
		return 1, nil
	}
	if f := ctx.Mem().StoreWord(addr, val); f != nil {
		return 1, f
	}
	return 0, nil
}

// scAbort accounts one transactional-attempt abort and decides what the
// SC does next: retry (after backoff), or demote and take the fallback.
func (s *hstHTM) scAbort(ctx Context, reason htm.AbortReason, attempt int) (retry bool) {
	chargeHTMAbort(ctx, s.cost, 0, reason)
	if s.res.StrictPaper {
		return true // the attempt counter provides the bound
	}
	if s.res.backoffRetry(ctx, reason, attempt) {
		return true
	}
	s.res.demote(ctx)
	return false
}

func (s *hstHTM) SC(ctx Context, addr, val uint32) (uint32, error) {
	m := ctx.Monitor()
	defer m.Reset()
	if !m.Active || m.Addr != addr {
		ctx.Tracer().Emit(obs.EvSCFail, addr, obs.SCNoMonitor)
		return 1, nil
	}
	tid := ctx.TID()
	if !s.res.StrictPaper && s.res.inCooldown(m) {
		// Demoted: skip the transactional attempts for the rest of the
		// cooldown instead of re-running an abort storm per SC.
		return s.scFallback(ctx, addr, val, tid)
	}
	load, store := s.txLoad(ctx), s.txStore(ctx)
	for attempt := 1; ; attempt++ {
		if s.res.StrictPaper && attempt > s.fallbackAfter {
			return s.scFallback(ctx, addr, val, tid)
		}
		ctx.Charge(stats.CompHTM, s.cost.HTMBegin)
		txn := s.tm.Begin(tid, load)
		owner, err := txn.Read(s.entryAddr(addr))
		if err != nil {
			var ab *htm.Abort
			if errors.As(err, &ab) {
				if s.scAbort(ctx, ab.Reason, attempt) {
					continue
				}
				return s.scFallback(ctx, addr, val, tid)
			}
			return 1, err
		}
		if owner != tid {
			// Entry changed since our LL: genuine SC failure, not an abort.
			txn.AbortNow(htm.ReasonConflict)
			return 1, nil
		}
		if err := txn.WriteCommit(addr, val, store); err != nil {
			var ab *htm.Abort
			if errors.As(err, &ab) {
				if s.scAbort(ctx, ab.Reason, attempt) {
					continue
				}
				return s.scFallback(ctx, addr, val, tid)
			}
			return 1, err
		}
		ctx.Stats().HTMCommits++
		ctx.Charge(stats.CompHTM, s.cost.HTMCommit)
		return 0, nil
	}
}

func (s *hstHTM) Clrex(ctx Context) { ctx.Monitor().Reset() }

func (s *hstHTM) Store(ctx Context, addr, val uint32) error {
	ctx.Charge(stats.CompInstrument, s.cost.HashInline)
	s.setAndNotify(addr, ctx.TID())
	if f := ctx.Mem().StoreWord(addr, val); f != nil {
		return f
	}
	s.tm.NotifyStore(addr)
	return nil
}

// RMW writes the word and then claims and publishes its entry, as hst does:
// there is no open transaction to write into (only the SC is
// transactional), and the claim after the write fails every monitor armed
// before it. An SC transaction that read the entry first is aborted by the
// entry's version bump. The SC's own window — between its validation and
// its publish — is closed: NotifyStore waits out a committing transaction,
// so an LL's load after its claim sees the SC's value. Plain stores and
// RMWs still write before they announce, so one that lands on the word
// while an SC commits it can be overwritten by the publish.
func (s *hstHTM) RMW(ctx Context, addr uint32, u mmu.Update) (uint32, error) {
	ctx.Charge(stats.CompInstrument, s.cost.HashInline)
	old, f := ctx.Mem().Update(addr, u)
	if f != nil {
		return 0, f
	}
	s.setAndNotify(addr&^3, ctx.TID())
	s.tm.NotifyStore(addr &^ 3)
	return old, nil
}

// HashOwner implements HashOwnerReporter for watchdog diagnostics.
func (s *hstHTM) HashOwner(addr uint32) (uint32, bool) {
	return s.tab.Get(addr), true
}

// hstHTMSnap is HST-HTM's checkpoint payload: the store-test table plus
// the TM slot words (entries live in the transactional address space, so
// both must roll back together).
type hstHTMSnap struct {
	entries []uint32
	words   []uint64
}

// Snapshot captures the table and the TM slot words.
func (s *hstHTM) Snapshot() any {
	return &hstHTMSnap{entries: s.tab.Snapshot(), words: s.tm.SnapshotWords()}
}

// Restore re-installs both; live transactions were aborted by the engine's
// monitor disarm beforehand.
func (s *hstHTM) Restore(mem *mmu.Memory, snap any) {
	if hs, ok := snap.(*hstHTMSnap); ok {
		s.tab.Restore(hs.entries)
		s.tm.RestoreWords(hs.words)
	}
}
