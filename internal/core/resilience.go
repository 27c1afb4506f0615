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
// fast path with a guaranteed-progress fallback instead. This policy
// classifies each abort by reason and decides between a bounded
// backoff-retry and demoting the monitor to the portable fallback path
// for a cooldown window:
//
//	conflict, non-txn-store  transient contention: backoff, retry
//	capacity                 deterministic: the window cannot fit, demote
//	emulation, syscall       deterministic: the window always contains
//	                         emulation work, demote
//
// All delays are virtual cycles plus a runtime.Gosched(); nothing reads
// the wall clock, so runs stay reproducible.
type Resilience struct {
	// StrictPaper restores the paper's behavior: no retries, no
	// degradation — PICO-HTM returns EmulationError after its livelock
	// limit and HST-HTM falls back per-SC after a fixed attempt count.
	StrictPaper bool
	// Seed derives the per-vCPU jitter streams. Any value works; runs
	// with equal seeds make identical backoff decisions, and 0 means
	// defaultSeed.
	Seed uint64
}

const (
	// maxRetries bounds consecutive retryable aborts per LL/SC window
	// before the monitor demotes.
	maxRetries = 16
	// backoffBase is the virtual-cycle delay unit; attempt k waits about
	// backoffBase<<k (capped at backoffMax) plus jitter.
	backoffBase uint64 = 64
	// backoffMax caps the exponential delay.
	backoffMax uint64 = 4096
	// cooldownWindows is how many LL windows run on the fallback path
	// after a demotion before the transactional fast path is retried.
	cooldownWindows = 64
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
	if m.Res.Rng == 0 {
		m.Res.Rng = (cmp.Or(r.Seed, defaultSeed) ^ uint64(tid)*0x2545f4914f6cdd1d) | 1
	}
}

// nextRand steps the monitor's xorshift64 stream.
func nextRand(m *Monitor) uint64 {
	x := m.Res.Rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	m.Res.Rng = x
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

// demote switches the monitor onto the fallback path for a cooldown
// window and records the fallback.
func (r *Resilience) demote(ctx Context) {
	m := ctx.Monitor()
	m.Res.CooldownLeft = cooldownWindows
	ctx.Stats().SchemeFallbacks++
	ctx.Tracer().Emit(obs.EvSchemeFall, m.Addr, uint64(m.AbortStreak))
}

// inCooldown reports whether the monitor should keep using the fallback
// path, consuming one cooldown window.
func (r *Resilience) inCooldown(m *Monitor) bool {
	if m.Res.CooldownLeft <= 0 {
		return false
	}
	m.Res.CooldownLeft--
	return true
}
