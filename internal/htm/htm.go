// Package htm is a software stand-in for hardware transactional memory
// (Intel TSX), which the paper's PICO-HTM and HST-HTM schemes require and
// which the reproduction host does not have.
//
// The design is a TL2-style word-based STM with eager write locking and
// commit-time read validation, plus one extension real HTM gets for free
// from cache coherence and that the schemes depend on: *strong atomicity*
// against non-transactional stores. The HTM schemes instrument every guest
// write and pass it through TM.NotifyStore, which either bumps the version
// of the word's lock slot (aborting any reader that saw the old version) or
// poisons a slot locked by an in-flight transaction (aborting its commit).
// NotifyStore costs a single atomic load when no transaction is active.
//
// Transactions abort on conflict, on capacity overflow, on poisoning, and
// explicitly (the engine aborts a transaction when emulation work — a
// translation-cache miss — occurs inside it, reproducing the paper's
// observation that QEMU's own code inside a PICO-HTM transaction causes
// repeated aborts and livelock).
package htm

import (
	"fmt"
	"sync/atomic"

	"atomemu/internal/faultinject"
)

// AbortReason classifies why a transaction aborted.
type AbortReason uint8

// Abort reasons.
const (
	ReasonConflict    AbortReason = iota // read/write conflict with another txn
	ReasonCapacity                       // read+write set exceeded capacity
	ReasonNonTxnStore                    // plain store hit our write set (poison)
	ReasonEmulation                      // emulation work (translation) inside txn
	ReasonSyscall                        // syscall inside txn
)

func (r AbortReason) String() string {
	switch r {
	case ReasonConflict:
		return "conflict"
	case ReasonCapacity:
		return "capacity"
	case ReasonNonTxnStore:
		return "non-txn-store"
	case ReasonEmulation:
		return "emulation"
	case ReasonSyscall:
		return "syscall"
	}
	return "reason?"
}

// Abort is the error returned when a transaction aborts. The caller decides
// whether to retry or fall back.
type Abort struct {
	Reason AbortReason
	Addr   uint32
}

func (a *Abort) Error() string {
	return fmt.Sprintf("htm: transaction aborted (%s) at %#08x", a.Reason, a.Addr)
}

// Lock-word layout:
//
//	unlocked: version<<2              (bit0 = 0)
//	locked:   owner<<2 | poison<<1 | 1
const (
	lockedBit  = 1
	poisonBit  = 2
	ownerShift = 2
	versionInc = 4
)

// TM is the transactional-memory "hardware": a versioned lock table shared
// by all transactions on a machine.
type TM struct {
	locks    []atomic.Uint64
	mask     uint32
	capacity int
	// active counts in-flight transactions plus registered store
	// watchers; NotifyStore's fast path is one load of it.
	active atomic.Int64
	nextID atomic.Uint64
	inj    *faultinject.Injector
}

// DefaultCapacity bounds a transaction's combined read+write set, modelling
// the L1-sized capacity of real HTM.
const DefaultCapacity = 512

// New creates a TM with 2^bits lock slots and the given read+write set
// capacity (0 means DefaultCapacity).
func New(bits uint, capacity int) (*TM, error) {
	if bits < 4 || bits > 24 {
		return nil, fmt.Errorf("htm: bits %d out of range [4,24]", bits)
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := uint32(1) << bits
	return &TM{locks: make([]atomic.Uint64, n), mask: n - 1, capacity: capacity}, nil
}

func (tm *TM) slot(addr uint32) uint32 {
	// Multiplicative hash over the word address.
	return (addr >> 2 * 0x9e3779b1) & tm.mask
}

// SetInjector installs a fault injector (nil to disable). Call before any
// transaction runs; the field is read without synchronization afterwards.
func (tm *TM) SetInjector(inj *faultinject.Injector) { tm.inj = inj }

// Active reports whether any transaction is in flight or any store watcher
// is registered, the condition under which NotifyStore does any work.
func (tm *TM) Active() bool { return tm.active.Load() > 0 }

// AddStoreWatcher keeps NotifyStore live while no transaction is open, so
// a vCPU running a degraded (non-transactional) LL/SC window still
// observes version bumps from plain stores. Paired with
// RemoveStoreWatcher.
func (tm *TM) AddStoreWatcher() { tm.active.Add(1) }

// RemoveStoreWatcher releases a watcher taken with AddStoreWatcher.
func (tm *TM) RemoveStoreWatcher() { tm.active.Add(-1) }

// SlotWord returns the current lock word of addr's slot. A degraded LL/SC
// window snapshots it at LL (before loading the value) and revalidates at
// SC: any committed transaction or notified plain store to an aliasing
// address changes the word.
func (tm *TM) SlotWord(addr uint32) uint64 {
	return tm.locks[tm.slot(addr)].Load()
}

// SameSlot reports whether two addresses alias to the same lock slot.
func (tm *TM) SameSlot(a, b uint32) bool { return tm.slot(a) == tm.slot(b) }

// BumpIfWord advances addr's slot version by exactly one step iff the slot
// still holds expect, returning the new word. A degraded vCPU uses it to
// adopt its own in-window store's version bump into its snapshot: the CAS
// guarantees no foreign bump is absorbed, and a locked expect word is
// refused (bumping it would corrupt the owner's lock).
func (tm *TM) BumpIfWord(addr uint32, expect uint64) (uint64, bool) {
	if expect&lockedBit != 0 {
		return expect, false
	}
	next := expect + versionInc
	if tm.locks[tm.slot(addr)].CompareAndSwap(expect, next) {
		return next, true
	}
	return expect, false
}

// NotifyStore records a non-transactional store for strong atomicity:
// readers of the slot revalidate and fail; a transaction holding the slot's
// lock is poisoned and will abort at commit.
func (tm *TM) NotifyStore(addr uint32) {
	if tm.active.Load() == 0 {
		return
	}
	s := &tm.locks[tm.slot(addr)]
	for {
		w := s.Load()
		if w&lockedBit != 0 {
			if w&poisonBit != 0 || s.CompareAndSwap(w, w|poisonBit) {
				return
			}
			continue
		}
		if s.CompareAndSwap(w, w+versionInc) {
			return
		}
	}
}

// SnapshotWords copies every slot's lock word for a checkpoint. A word
// locked by an open transaction (a vCPU parked mid LL/SC window) is
// recorded as a fresh unlocked version and poison bits are dropped: a
// restore aborts every live transaction, so neither its locks nor its
// poisoning may be resurrected.
func (tm *TM) SnapshotWords() []uint64 {
	out := make([]uint64, len(tm.locks))
	for i := range tm.locks {
		w := tm.locks[i].Load()
		if w&lockedBit != 0 {
			w = 0
		}
		out[i] = w &^ uint64(poisonBit)
	}
	return out
}

// RestoreWords installs a SnapshotWords copy. Call only at machine
// quiescence, after every live transaction has been aborted and every
// store watcher released (the active count is not part of the snapshot —
// it reaches zero through those aborts/releases).
func (tm *TM) RestoreWords(words []uint64) {
	for i := range tm.locks {
		var w uint64
		if i < len(words) {
			w = words[i]
		}
		tm.locks[i].Store(w)
	}
}

type readEntry struct {
	slot uint32
	ver  uint64
}

type writeEntry struct {
	addr uint32
	val  uint32
	slot uint32
	prev uint64 // lock word we replaced when acquiring
	dup  bool   // true if an earlier entry already owns the slot lock
}

// Txn is one transaction. It is not safe for concurrent use by multiple
// goroutines — like a hardware transaction, it belongs to one CPU.
type Txn struct {
	tm       *TM
	id       uint64
	tid      uint32
	load     func(addr uint32) (uint32, error)
	reads    []readEntry
	writes   []writeEntry
	done     bool
	doomed   bool // fault injection: abort at the first memory op or commit
	aborted  bool
	lastWhy  AbortReason
	lastAddr uint32
}

// Begin starts a transaction for vCPU tid. load reads committed guest
// memory (it is called for transactional reads that miss the write
// buffer).
func (tm *TM) Begin(tid uint32, load func(addr uint32) (uint32, error)) *Txn {
	tm.active.Add(1)
	t := &Txn{tm: tm, id: tm.nextID.Add(1), tid: tid, load: load}
	if tm.inj.Check(faultinject.OpTxnBegin, tid, 0) == faultinject.ActAbort {
		t.doomed = true
	}
	return t
}

// TID returns the vCPU the transaction belongs to.
func (t *Txn) TID() uint32 { return t.tid }

func (t *Txn) abort(reason AbortReason, addr uint32) *Abort {
	t.releaseLocks(true)
	t.finish()
	t.aborted = true
	t.lastWhy = reason
	t.lastAddr = addr
	return &Abort{Reason: reason, Addr: addr}
}

func (t *Txn) finish() {
	if !t.done {
		t.done = true
		t.tm.active.Add(-1)
	}
}

// releaseLocks drops every write lock. With bump, versions advance past the
// pre-lock value so racing readers revalidate.
func (t *Txn) releaseLocks(bump bool) {
	for i := range t.writes {
		w := &t.writes[i]
		if w.dup {
			continue
		}
		v := w.prev
		if bump {
			v += versionInc
		}
		t.tm.locks[w.slot].Store(v)
	}
}

// AbortReason returns why the transaction last aborted, if it has.
func (t *Txn) AbortReason() (AbortReason, bool) {
	return t.lastWhy, t.aborted
}

// Read performs a transactional load.
func (t *Txn) Read(addr uint32) (uint32, error) {
	if t.done {
		return 0, &Abort{Reason: ReasonConflict, Addr: addr}
	}
	if t.doomed {
		return 0, t.abort(ReasonConflict, addr)
	}
	// Read-own-writes.
	for i := len(t.writes) - 1; i >= 0; i-- {
		if t.writes[i].addr == addr {
			return t.writes[i].val, nil
		}
	}
	slot := t.tm.slot(addr)
	s := &t.tm.locks[slot]
	w := s.Load()
	if w&lockedBit != 0 {
		if w>>ownerShift != t.id {
			return 0, t.abort(ReasonConflict, addr)
		}
		// We hold the slot lock for a colliding address; memory holds the
		// committed value for this one.
		v, err := t.load(addr)
		if err != nil {
			t.abort(ReasonConflict, addr)
			return 0, err
		}
		return v, nil
	}
	v, err := t.load(addr)
	if err != nil {
		t.abort(ReasonConflict, addr)
		return 0, err
	}
	if s.Load() != w {
		return 0, t.abort(ReasonConflict, addr)
	}
	t.reads = append(t.reads, readEntry{slot: slot, ver: w})
	if len(t.reads)+len(t.writes) > t.tm.capacity {
		return 0, t.abort(ReasonCapacity, addr)
	}
	return v, nil
}

// Write buffers a transactional store, eagerly locking the word's slot.
func (t *Txn) Write(addr, val uint32) error {
	if t.done {
		return &Abort{Reason: ReasonConflict, Addr: addr}
	}
	if t.doomed {
		return t.abort(ReasonConflict, addr)
	}
	slot := t.tm.slot(addr)
	s := &t.tm.locks[slot]
	for {
		w := s.Load()
		if w&lockedBit != 0 {
			if w>>ownerShift == t.id {
				t.writes = append(t.writes, writeEntry{addr: addr, val: val, slot: slot, dup: true})
				break
			}
			return t.abort(ReasonConflict, addr)
		}
		if s.CompareAndSwap(w, t.id<<ownerShift|lockedBit) {
			t.writes = append(t.writes, writeEntry{addr: addr, val: val, slot: slot, prev: w})
			break
		}
	}
	if len(t.reads)+len(t.writes) > t.tm.capacity {
		return t.abort(ReasonCapacity, addr)
	}
	return nil
}

// AbortNow aborts the transaction explicitly (emulation work or a syscall
// landed inside it).
func (t *Txn) AbortNow(reason AbortReason) *Abort {
	if t.done {
		return &Abort{Reason: reason}
	}
	return t.abort(reason, 0)
}

// Done reports whether the transaction has committed or aborted.
func (t *Txn) Done() bool { return t.done }

// Commit validates the read set, publishes buffered writes through store,
// and releases locks. On abort the returned error is *Abort; a store error
// (e.g. a guest memory fault) is returned as-is after aborting.
func (t *Txn) Commit(store func(addr, val uint32) error) error {
	if t.done {
		return &Abort{Reason: ReasonConflict}
	}
	if t.doomed {
		return t.abort(ReasonConflict, 0)
	}
	switch t.tm.inj.Check(faultinject.OpTxnCommit, t.tid, 0) {
	case faultinject.ActAbort:
		return t.abort(ReasonConflict, 0)
	case faultinject.ActPoison:
		return t.abort(ReasonNonTxnStore, 0)
	}
	// Poison check: a plain store hit one of our locked slots.
	for i := range t.writes {
		w := &t.writes[i]
		if t.tm.locks[w.slot].Load()&poisonBit != 0 {
			return t.abort(ReasonNonTxnStore, w.addr)
		}
	}
	// Read validation.
	for _, r := range t.reads {
		w := t.tm.locks[r.slot].Load()
		if w&lockedBit != 0 {
			if w>>ownerShift != t.id {
				return t.abort(ReasonConflict, 0)
			}
			// We locked this slot after reading it; the pre-lock version
			// must match what we read.
			ok := false
			for i := range t.writes {
				we := &t.writes[i]
				if we.slot == r.slot && !we.dup {
					ok = we.prev == r.ver
					break
				}
			}
			if !ok {
				return t.abort(ReasonConflict, 0)
			}
			continue
		}
		if w != r.ver {
			return t.abort(ReasonConflict, 0)
		}
	}
	// Publish.
	for i := range t.writes {
		w := &t.writes[i]
		if err := store(w.addr, w.val); err != nil {
			t.releaseLocks(true)
			t.finish()
			return err
		}
	}
	t.releaseLocks(true)
	t.finish()
	return nil
}
