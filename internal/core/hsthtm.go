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
// It is hst with a TM: LL, Store, RMW, Clrex and HashOwner are hst's, which
// announces its writes to the TM (see hst). hstHTM supplies only its SC
// and its Snapshot and Restore, which add the TM slot words to the table.
//
// The transaction's footprint is the hash entry plus the guest word. Hash
// entries are mapped into the transactional address space at entryAddr;
// hst announces every entry write there, which is how a conflicting LL or
// store aborts an in-flight SC, and how an LL that claims the entry while
// an SC commits waits for that SC's publish before it loads.
//
// Resilience: the default policy replaces the fixed attempt count with
// reason-aware backoff — retryable aborts wait (exponential + per-tid
// jitter) before re-issuing the transaction. A non-retryable abort or an
// exhausted budget sends that one SC to the stop-the-world fallback and
// counts a fallback; the next SC tries the transaction again. hst-htm never
// demotes the machine: an SC already waiting in hst's stop-the-world would
// check the old scheme's hash table while stores made after a swap claim
// entries only in the new one. StrictPaper keeps the original fixed-count
// behavior.
type hstHTM struct {
	*hst
	res Resilience
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
	var r Resilience
	if res != nil {
		r = *res
	}
	return &hstHTM{hst: &hst{hashState: hashState{tab}, cost: cost, tm: tm}, res: r, fallbackAfter: 8}
}

func (s *hstHTM) Name() string   { return "hst-htm" }
func (s *hstHTM) Portable() bool { return false }

// entryAddr is addr's hash entry in the transactional address space.
func (s *hst) entryAddr(addr uint32) uint32 {
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

// scFallback is hst's stop-the-world check-and-store — the portable
// guaranteed-progress path. The transactional attempts have charged
// their own cycles, so it charges none inside the section.
func (s *hstHTM) scFallback(ctx Context, addr, val uint32) (uint32, error) {
	return s.scExclusive(ctx, addr, val, 0)
}

// scAbort accounts one transactional-attempt abort and decides what the
// SC does next: retry (after backoff), or count a fallback and take it.
func (s *hstHTM) scAbort(ctx Context, reason htm.AbortReason, attempt int) (retry bool) {
	chargeHTMAbort(ctx, s.cost, 0, reason)
	if s.res.StrictPaper {
		return true // the attempt counter provides the bound
	}
	if s.res.backoffRetry(ctx, reason, attempt) {
		return true
	}
	ctx.Stats().SchemeFallbacks++
	ctx.Tracer().Emit(obs.EvSchemeFall, ctx.Monitor().Addr, uint64(attempt))
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
	load, store := s.txLoad(ctx), s.txStore(ctx)
	for attempt := 1; ; attempt++ {
		if s.res.StrictPaper && attempt > s.fallbackAfter {
			return s.scFallback(ctx, addr, val)
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
				return s.scFallback(ctx, addr, val)
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
				return s.scFallback(ctx, addr, val)
			}
			return 1, err
		}
		ctx.Stats().HTMCommits++
		ctx.Charge(stats.CompHTM, s.cost.HTMCommit)
		return 0, nil
	}
}

// hstHTMSnap is HST-HTM's checkpoint payload: hst's table snapshot plus
// the TM slot words (entries live in the transactional address space, so
// both must roll back together).
type hstHTMSnap struct {
	table any
	words []uint64
}

// Snapshot captures the table and the TM slot words.
func (s *hstHTM) Snapshot() any {
	return &hstHTMSnap{table: s.hashState.Snapshot(), words: s.tm.SnapshotWords()}
}

// Restore re-installs both; live transactions were aborted by the engine's
// monitor disarm beforehand.
func (s *hstHTM) Restore(mem *mmu.Memory, snap any) {
	if hs, ok := snap.(*hstHTMSnap); ok {
		s.hashState.Restore(mem, hs.table)
		s.tm.RestoreWords(hs.words)
	}
}
