package engine

import (
	"sync"
	"sync/atomic"
)

// exclusive implements QEMU's linux-user start_exclusive/end_exclusive
// protocol: a vCPU wanting exclusivity waits until every other vCPU has
// parked outside its execution region; vCPUs poll a pending flag between
// translation blocks and park when an exclusive section is requested.
//
// No uncontended path takes a mutex. Entering the region is
// add-running-then-check-pending and stopping the world is
// add-pending-then-check-running; Go's atomics are sequentially consistent,
// so of a vCPU and a requester that race at least one sees the other (the
// Dekker pair): the vCPU backs out, or the requester waits for it, or both.
// mu and cond exist only to sleep and to wake a counted sleeper. Waiters
// park, they never spin: spinning lets the vCPUs of a contended LL/SC loop
// truly overlap, which raised the lock-free stack's SC failure rate from
// 2 % to 17-31 % and bought no host time (DESIGN §4b).
//
// It also anchors the virtual-time model: the requester pays the park cost
// (base + per-vCPU), and every other vCPU is charged a fixed stall per
// section it witnesses (CPU.witnessStalls) — so a stop-the-world costs the
// whole machine O(threads) VIRTUAL cycles per section, as on the paper's
// QEMU, without artificially merging the drifting virtual clocks. The host
// cost of the accounting itself is O(1): chargeExclusiveEntry reads the
// maintained runningCPUs counter instead of scanning the vCPU list, since
// it runs on every HST/PICO-ST SC.
type exclusive struct {
	pending atomic.Int32 // exclusive sections requested or active
	running atomic.Int32 // vCPUs inside their execution region

	mu       sync.Mutex
	cond     *sync.Cond
	sleepers atomic.Int32 // goroutines in, or committed to, cond.Wait

	// exclHolder serializes exclusive sections.
	exclHolder sync.Mutex
}

func newExclusive() *exclusive {
	e := &exclusive{}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// sleepUntilZero parks the caller until v (pending or running) reads zero.
// The sleeper counts itself before it re-checks v and a waker changes v
// before it reads the count, so one of them always sees the other; a waker
// that saw the count takes mu, which the sleeper only releases inside Wait.
func sleepUntilZero(e *exclusive, v *atomic.Int32) {
	e.mu.Lock()
	e.sleepers.Add(1)
	for v.Load() != 0 {
		e.cond.Wait()
	}
	e.sleepers.Add(-1)
	e.mu.Unlock()
}

// wakeSleepers is called after pending or running dropped to zero; it
// touches mu only when somebody is counted asleep.
func wakeSleepers(e *exclusive) {
	if e.sleepers.Load() > 0 {
		e.mu.Lock()
		e.cond.Broadcast()
		e.mu.Unlock()
	}
}

// execStart enters the vCPU execution region, parking while an exclusive
// section is pending or active.
func (e *exclusive) execStart(c *CPU) {
	for {
		e.running.Add(1)
		if e.pending.Load() == 0 {
			return
		}
		e.execEnd(c)
		sleepUntilZero(e, &e.pending)
	}
}

// execEnd leaves the execution region.
func (e *exclusive) execEnd(c *CPU) {
	if e.running.Add(-1) == 0 {
		wakeSleepers(e)
	}
}

// checkpoint parks the vCPU if an exclusive section is pending. Called
// between translation blocks; the fast path is one atomic load.
func (e *exclusive) checkpoint(c *CPU) {
	if e.pending.Load() == 0 {
		return
	}
	e.execEnd(c)
	sleepUntilZero(e, &e.pending)
	e.execStart(c)
}

// startExclusive stops the world. The caller must currently be inside its
// execution region; on return it is the only vCPU making progress.
func (e *exclusive) startExclusive(c *CPU) {
	e.startExclusiveQuiet(c)
	// The world is stopped: charge the suspension cost.
	c.m.chargeExclusiveEntry(c)
}

// endExclusive resumes the world and re-enters the execution region. It
// re-enters before it releases the section, so the caller never parks
// here: a section ends mid-block (an SC's store has landed, the block has
// not exited), and a vCPU parked there would be part of the next section's
// world. A checkpoint capture would then record the SC's store in memory
// but the block's start pc, and the restored vCPU would run the SC twice.
// The next requester instead waits for this vCPU at its next block
// boundary, like any running vCPU.
func (e *exclusive) endExclusive(c *CPU) {
	e.running.Add(1)
	e.hostResume()
}

// startExclusiveQuiet stops the world without charging anyone: no entry
// cost on the requester, no section published for witness stalls. Used for
// checkpoint capture, which must be invisible to the virtual-time model so
// a run with checkpointing enabled stays cycle-identical to one without.
func (e *exclusive) startExclusiveQuiet(c *CPU) {
	e.execEnd(c)
	e.hostStop()
}

// endExclusiveQuiet resumes the world after a quiet section. (endExclusive
// never charges, so this is the same release path under the paired name.)
func (e *exclusive) endExclusiveQuiet(c *CPU) { e.endExclusive(c) }

// hostStop stops the world from a host thread (one that is not a vCPU and
// therefore not inside an execution region): status pollers reading live
// per-vCPU counters, which are plain fields owned by their vCPU goroutine.
// On return every vCPU is parked outside its execution region and all its
// prior writes are visible (its execEnd decremented running, which this
// loads as zero); no vCPU re-enters until hostResume. Charges nothing — like
// the checkpoint section, a host-side read must be invisible to the
// virtual-time model.
func (e *exclusive) hostStop() {
	e.exclHolder.Lock()
	e.pending.Add(1)
	if e.running.Load() != 0 {
		sleepUntilZero(e, &e.running)
	}
}

// hostResume resumes the world after hostStop.
func (e *exclusive) hostResume() {
	e.pending.Add(-1)
	wakeSleepers(e)
	e.exclHolder.Unlock()
}
