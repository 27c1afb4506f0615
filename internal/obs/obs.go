// Package obs is the engine's observability layer: a per-vCPU lock-free
// ring-buffer event tracer, Prometheus-style histograms, and trace
// exporters (JSONL, Chrome trace-event).
//
// The tracer is designed so the disabled path costs one nil check: every
// emit site calls Emit on a possibly-nil *Ring, and Emit returns
// immediately on a nil receiver. When enabled, each vCPU owns its own
// Ring (single writer, no locks); the host reads rings only at
// quiescence (all vCPUs parked in the exclusive protocol, or after the
// machine has stopped), so no reader/writer synchronisation is needed
// beyond the atomic head counter.
package obs

import "sync/atomic"

// Kind identifies an event type in the trace stream.
type Kind uint8

// Event kinds. The numeric values are part of the JSONL export format;
// append only.
const (
	EvNone         Kind = iota
	EvLL                // load-linked established a monitor (Addr = guest address)
	EvSCOk              // store-conditional succeeded (Addr = guest address)
	EvSCFail            // store-conditional failed (Addr = guest address, Arg = SC failure reason)
	EvHashConflict      // HST monitor-table hash conflict (Addr = guest address)
	EvExclEnter         // vCPU entered an exclusive section
	EvExclExit          // vCPU left an exclusive section
	EvHTMAbort          // HTM transaction aborted (Arg = htm.AbortReason)
	EvHTMBackoff        // resilience layer charged an abort backoff (Arg = wait cycles)
	EvSchemeFall        // resilience layer fell back to portable HST (Arg = abort streak length)
	EvWatchdogTrip      // SC watchdog tripped a stalled monitor (Addr = monitored address)
	EvCheckpoint        // checkpoint captured (Arg = pages copied)
	EvRestore           // checkpoint restored after a fault (Arg = snapshot sequence)
	EvTierPromote       // block promoted from interp tier to optimized IR (Addr = block start, Arg = exec count)
	EvChainLink         // chain link installed between two TBs (Addr = source block start, Arg = target pc)
)

var kindNames = [...]string{
	EvNone:         "none",
	EvLL:           "ll",
	EvSCOk:         "sc_ok",
	EvSCFail:       "sc_fail",
	EvHashConflict: "hash_conflict",
	EvExclEnter:    "excl_enter",
	EvExclExit:     "excl_exit",
	EvHTMAbort:     "htm_abort",
	EvHTMBackoff:   "htm_backoff",
	EvSchemeFall:   "scheme_fallback",
	EvWatchdogTrip: "watchdog_trip",
	EvCheckpoint:   "checkpoint",
	EvRestore:      "restore",
	EvTierPromote:  "tier_promote",
	EvChainLink:    "chain_link",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// SC failure reasons, carried in Event.Arg of an EvSCFail event. They
// refine stats.CPU.SCFails: the counter says how many SCs failed, the
// trace says why each one did.
const (
	SCNoMonitor     uint64 = iota + 1 // no active monitor (spurious SC, or cleared by interference)
	SCValueChanged                    // CAS observed a different value than the LL snapshot
	SCHashStolen                      // HST hash-table entry taken over by another vCPU
	SCLockStolen                      // HST-weak per-entry lock held by another vCPU
	SCMonitorBroken                   // monitor invalidated by a conflicting store
	SCPageGone                        // PST private page withdrawn before the SC
	SCTxnDoomed                       // HTM transaction doomed; SC completed on the fallback
)

var scReasonNames = [...]string{
	SCNoMonitor:     "no_monitor",
	SCValueChanged:  "value_changed",
	SCHashStolen:    "hash_stolen",
	SCLockStolen:    "lock_stolen",
	SCMonitorBroken: "monitor_broken",
	SCPageGone:      "page_gone",
	SCTxnDoomed:     "txn_doomed",
}

// SCReasonString names an SCFail reason code for human-readable exports.
func SCReasonString(r uint64) string {
	if r < uint64(len(scReasonNames)) && scReasonNames[r] != "" {
		return scReasonNames[r]
	}
	return "unknown"
}

// Event is one traced occurrence. 32 bytes, fixed layout, no pointers:
// a ring of 2^bits events costs exactly 32<<bits bytes and never keeps
// anything else alive.
type Event struct {
	VT   uint64 // virtual timestamp (cycles) when the event was emitted
	Arg  uint64 // kind-specific argument (reason code, wait cycles, ...)
	Addr uint32 // guest address, when the event has one
	TID  uint32 // emitting vCPU's thread id (0 = host)
	Kind Kind
}

// Ring is a single-writer, lock-free bounded event buffer. One vCPU
// writes; the host reads at quiescence. When full it overwrites the
// oldest events — tracing never blocks or fails, it just forgets the
// distant past.
//
// A nil *Ring is valid and inert: Emit, EmitAt, Events, Len and Dropped
// are all nil-safe, so call sites need no enabled-flag of their own.
type Ring struct {
	buf   []Event
	mask  uint64
	tid   uint32
	clock *uint64       // the owning vCPU's virtual clock; nil for host rings
	head  atomic.Uint64 // total events ever emitted
}

// NewRing makes a ring of 2^bits events owned by vCPU tid. clock, when
// non-nil, supplies virtual timestamps for Emit; host-side rings pass
// nil and use EmitAt instead. The clock is a plain word its vCPU alone
// writes, and Emit runs on that vCPU, so the read needs no synchronization.
func NewRing(tid uint32, bits uint, clock *uint64) *Ring {
	if bits < 4 {
		bits = 4
	}
	if bits > 24 {
		bits = 24
	}
	n := uint64(1) << bits
	return &Ring{buf: make([]Event, n), mask: n - 1, tid: tid, clock: clock}
}

// Emit records an event stamped with the owner's current virtual time.
// Nil-safe; single-writer only.
func (r *Ring) Emit(k Kind, addr uint32, arg uint64) {
	if r == nil {
		return
	}
	var vt uint64
	if r.clock != nil {
		vt = *r.clock
	}
	r.emit(Event{VT: vt, Arg: arg, Addr: addr, TID: r.tid, Kind: k})
}

// EmitAt records an event with an explicit virtual timestamp. Used by
// host-side rings that have no vCPU clock. Nil-safe; single-writer only.
func (r *Ring) EmitAt(vt uint64, k Kind, addr uint32, arg uint64) {
	if r == nil {
		return
	}
	r.emit(Event{VT: vt, Arg: arg, Addr: addr, TID: r.tid, Kind: k})
}

func (r *Ring) emit(e Event) {
	h := r.head.Load()
	r.buf[h&r.mask] = e
	// Store after the slot write so a quiescent reader observing head=h+1
	// also observes the slot contents (release on this architecture; the
	// engine additionally only reads rings when the writer is parked).
	r.head.Store(h + 1)
}

// Len reports how many events are currently retained. Nil-safe.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	h := r.head.Load()
	if h > uint64(len(r.buf)) {
		return len(r.buf)
	}
	return int(h)
}

// Dropped reports how many events were overwritten because the ring
// wrapped. Nil-safe.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	h := r.head.Load()
	if h > uint64(len(r.buf)) {
		return h - uint64(len(r.buf))
	}
	return 0
}

// Events returns the retained events oldest-first. Only valid at
// quiescence (the owning vCPU parked or exited); the result is a copy.
// Nil-safe.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	h := r.head.Load()
	n := h
	if n > uint64(len(r.buf)) {
		n = uint64(len(r.buf))
	}
	out := make([]Event, 0, n)
	for i := h - n; i < h; i++ {
		out = append(out, r.buf[i&r.mask])
	}
	return out
}
