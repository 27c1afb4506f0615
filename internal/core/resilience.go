package core

import (
	"cmp"
	"runtime"

	"atomemu/internal/htm"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

// Resilience is the abort-handling policy shared by the HTM schemes. The
// paper's reproduction crashes the machine when PICO-HTM livelocks beyond
// 8 threads (§III-B, Fig. 11); real deployments pair the transactional
// fast path with a guaranteed-progress fallback instead. There is one
// fallback, portable HST's stop-the-world. This policy classifies each
// abort by reason and decides whether a bounded backoff-retry can help:
//
//	conflict, non-txn-store  transient contention: backoff, retry
//	capacity                 the window cannot fit: no retry
//	emulation, syscall       the window contains emulation work (often
//	                         only once, while its block is translated):
//	                         no retry
//
// HST-HTM takes the fallback per SC, to hst's stop-the-world
// check-and-store, when it may not retry. PICO-HTM fails the window
// instead (the guest retries it) and takes the fallback only for livelock:
// when a vCPU's abort streak reaches the limit at which StrictPaper would
// crash, it asks the engine to demote the whole machine to hst
// (Monitor.Demote). All delays are virtual cycles plus a runtime.Gosched();
// nothing reads the wall clock, so runs stay reproducible.
type Resilience struct {
	// StrictPaper restores the paper's behavior: no retries, no
	// demotion — PICO-HTM returns EmulationError after its livelock
	// limit and HST-HTM falls back per-SC after a fixed attempt count.
	StrictPaper bool
	// Seed derives the per-vCPU jitter streams. Any value works; runs
	// with equal seeds make identical backoff decisions, and 0 means
	// defaultSeed.
	Seed uint64
}

const (
	// maxRetries bounds consecutive retryable aborts before the scheme
	// stops backing off: HST-HTM falls back, PICO-HTM gives the window
	// up.
	maxRetries = 16
	// backoffBase is the virtual-cycle delay unit; attempt k waits about
	// backoffBase<<k (capped at backoffMax) plus jitter.
	backoffBase uint64 = 64
	// backoffMax caps the exponential delay.
	backoffMax uint64 = 4096
	// defaultSeed is the jitter seed of a policy whose Seed is 0.
	defaultSeed uint64 = 0x9e3779b97f4a7c15
)

// chargeHTMAbort accounts one transaction abort in the HTM schemes:
// the counter, the trace event at addr, and the abort's cycles.
func chargeHTMAbort(ctx Context, cost *CostModel, addr uint32, reason htm.AbortReason) {
	ctx.Stats().HTMAborts++
	ctx.Tracer().Emit(obs.EvHTMAbort, addr, uint64(reason))
	ctx.Charge(stats.CompHTM, cost.HTMAbort)
}

// retryable reports whether an abort reason can succeed on retry.
// Conflicts and poisoned slots are transient contention; capacity,
// emulation work and syscalls inside the window are properties of the
// window itself, so retrying burns cycles for nothing.
func retryable(reason htm.AbortReason) bool {
	switch reason {
	case htm.ReasonConflict, htm.ReasonNonTxnStore:
		return true
	}
	return false
}

// seedRng initializes the monitor's jitter stream on first use.
func (r *Resilience) seedRng(m *Monitor, tid uint32) {
	if m.Rng == 0 {
		m.Rng = (cmp.Or(r.Seed, defaultSeed) ^ uint64(tid)*0x2545f4914f6cdd1d) | 1
	}
}

// nextRand steps the monitor's xorshift64 stream.
func nextRand(m *Monitor) uint64 {
	x := m.Rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	m.Rng = x
	return x
}

// backoffRetry reports whether the scheme should retry the transaction
// after an abort, charging the backoff delay when it does. attempt is the
// number of aborts already taken this window (1-based).
func (r *Resilience) backoffRetry(ctx Context, reason htm.AbortReason, attempt int) bool {
	if !retryable(reason) || attempt > maxRetries {
		return false
	}
	m := ctx.Monitor()
	r.seedRng(m, ctx.TID())
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	d := backoffBase << shift
	d = min(d, backoffMax)
	// Half deterministic, half per-tid jitter: decorrelates competing
	// vCPUs so they stop re-colliding in lockstep.
	wait := d/2 + nextRand(m)%(d/2+1)
	st := ctx.Stats()
	st.HTMRetries++
	st.HTMBackoffWaits++
	ctx.Tracer().Emit(obs.EvHTMBackoff, m.Addr, wait)
	ctx.Charge(stats.CompHTM, wait)
	// Yield the host thread too: the competing transaction is a real
	// goroutine that needs host cycles to finish and release its locks.
	runtime.Gosched()
	return true
}
