// Package htm is a software stand-in for hardware transactional memory
// (Intel TSX), which the paper's PICO-HTM and HST-HTM schemes require and
// which the reproduction host does not have.
//
// The design is a TL2-style word-based STM with eager write locking and
// commit-time read validation, plus one extension real HTM gets for free
// from cache coherence and that the schemes depend on: *strong atomicity*
// against non-transactional stores. The HTM schemes instrument every guest
// write: a guest word is written under its slot's store lock (BeginStore,
// EndStore, below), and a write outside guest memory (hst-htm's hash
// entries) is announced with NotifyStore. Either moves the version of the
// slot (aborting any reader that saw the old version) or poisons a slot
// locked by an in-flight transaction (aborting its commit). NotifyStore
// costs a single atomic load when no transaction is active.
//
// A hardware commit is instantaneous to every other core. The STM's commit
// is a sequence — validate the read set, publish the write set, release —
// so Commit holds every slot it depends on in a visible *committing* state
// from validation to release: its write locks carry the committing bit and
// its read slots are pinned (a per-slot count beside the lock word). What
// meets a committing slot waits the commit out instead of observing half of
// it:
//   - NotifyStore on a committing lock waits for the release and then bumps
//     the version; on a pinned slot it bumps and then waits for the pins to
//     drain, so a load after NotifyStore returns sees every commit that
//     validated against the old version. (Bump-then-check against
//     Commit's pin-then-check: one of the two always sees the other.)
//   - A transactional Read or Write that meets a committing lock waits and
//     then proceeds against the published state, as a core whose line was
//     just written by a committing core would.
//
// Every wait yields the host thread (runtime.Gosched); nothing hot-spins.
// A committer never waits on anything, so waits cannot form a cycle.
// Conflicts that real HTM reports still abort: a slot held by an in-flight
// (not yet committing) transaction aborts the reader or writer that meets
// it, and a commit-time validation that meets another owner's lock aborts
// at once — every committing lock is a write lock, whose release always
// moves the version, so waiting could only end in the same abort.
// WriteCommit takes its slot already committing, so a transaction whose
// last act is a write (an SC) never holds that lock in flight.
//
// A plain store to guest memory is bracketed by BeginStore and EndStore,
// which hold the word's slot committing for the store (owner 0, the *store
// lock*) the way a commit holds its write set: BeginStore waits out a
// commit or another store on the slot, and then the slot's pins, so the
// write can land neither between a commit's validation and its publish
// (where the publish would overwrite it) nor under a transaction that read
// the old word and is about to commit; EndStore moves the version. What
// meets a store lock waits it out as it would a commit, except NotifyStore,
// which leaves the version to the lock's release and waits only for pins:
// a store-lock holder may announce another slot (hst-htm's entry claim) and
// must never wait on a store lock itself, so the waits stay acyclic. A slot
// an in-flight transaction holds is poisoned instead of locked, and the
// store writes at once: the transaction can no longer commit, and its
// release moves the version. There is no fast path while the TM is idle: a
// transaction may begin between such a check and the write.
//
// Transactions abort on conflict, on capacity overflow, on poisoning, and
// explicitly (the engine aborts a transaction when emulation work — a
// translation-cache miss — occurs inside it, reproducing the paper's
// observation that QEMU's own code inside a PICO-HTM transaction causes
// repeated aborts and livelock).
package htm

import (
	"fmt"
	"runtime"
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
//	unlocked: version<<2                               (bit0 = 0)
//	locked:   owner<<3 | committing<<2 | poison<<1 | 1
const (
	lockedBit     = 1
	poisonBit     = 2
	committingBit = 4
	ownerShift    = 3
	versionInc    = 4
)

// committingOther reports whether lock word w is held by a committing
// transaction other than id.
func committingOther(w, id uint64) bool {
	return w&(lockedBit|committingBit) == lockedBit|committingBit && w>>ownerShift != id
}

// TM is the transactional-memory "hardware": a versioned lock table shared
// by all transactions on a machine.
type TM struct {
	locks []atomic.Uint64
	// pins counts, per slot, the committing transactions that validated a
	// read of it and have not yet released.
	pins     []atomic.Int32
	mask     uint32
	capacity int
	// active counts in-flight transactions; NotifyStore's fast path is
	// one load of it.
	active atomic.Int64
	nextID atomic.Uint64
	inj    *faultinject.Injector
	// commitHook, when set by an in-package test, runs inside Commit
	// between validation and publish.
	commitHook func()
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
	return &TM{locks: make([]atomic.Uint64, n), pins: make([]atomic.Int32, n), mask: n - 1, capacity: capacity}, nil
}

func (tm *TM) slot(addr uint32) uint32 {
	// Multiplicative hash over the word address.
	return (addr >> 2 * 0x9e3779b1) & tm.mask
}

// SetInjector installs a fault injector (nil to disable). Call before any
// transaction runs; the field is read without synchronization afterwards.
func (tm *TM) SetInjector(inj *faultinject.Injector) { tm.inj = inj }

// Active reports whether any transaction is in flight, the condition under
// which NotifyStore does any work.
func (tm *TM) Active() bool { return tm.active.Load() > 0 }

// NotifyStore records a non-transactional store for strong atomicity:
// readers of the slot revalidate and fail; a transaction holding the slot's
// lock in flight is poisoned and will abort at commit. A committing
// transaction is waited out: NotifyStore returns only after every commit
// that locked or validated the slot before the notification has published,
// so the caller's next load sees those commits whole. A slot under a store
// lock is left to that lock's release, which moves the version.
func (tm *TM) NotifyStore(addr uint32) {
	if tm.active.Load() == 0 {
		return
	}
	i := tm.slot(addr)
	s := &tm.locks[i]
	for {
		w := s.Load()
		if w&lockedBit != 0 {
			if w&committingBit != 0 {
				if w>>ownerShift == storeOwner {
					break
				}
				runtime.Gosched()
				continue
			}
			if w&poisonBit != 0 || s.CompareAndSwap(w, w|poisonBit) {
				break
			}
			continue
		}
		if s.CompareAndSwap(w, w+versionInc) {
			break
		}
	}
	for tm.pins[i].Load() != 0 {
		runtime.Gosched()
	}
}

// storeOwner is the owner field of a store lock; transaction ids start at 1.
const storeOwner = 0

// StoreLock is a plain store's hold on its word's slot, from BeginStore to
// EndStore.
type StoreLock struct {
	slot uint32
	prev uint64 // the unlocked word the lock replaced
	held bool   // false: an in-flight transaction held the slot and was poisoned
}

// BeginStore readies the slot of addr for a plain store of the word: it
// waits out a commit or another store on the slot, locks it committing
// for the store, and waits for the slot's pins to drain, so every commit
// that validated a read of the old word has published. A slot held by an
// in-flight transaction is poisoned instead; that transaction can no
// longer commit. The caller writes and then calls EndStore.
func (tm *TM) BeginStore(addr uint32) StoreLock {
	i := tm.slot(addr)
	s := &tm.locks[i]
	for {
		w := s.Load()
		if w&lockedBit == 0 {
			if s.CompareAndSwap(w, storeOwner<<ownerShift|committingBit|lockedBit) {
				for tm.pins[i].Load() != 0 {
					runtime.Gosched()
				}
				return StoreLock{slot: i, prev: w, held: true}
			}
			continue
		}
		if w&committingBit != 0 {
			runtime.Gosched()
			continue
		}
		if w&poisonBit != 0 || s.CompareAndSwap(w, w|poisonBit) {
			return StoreLock{slot: i}
		}
	}
}

// EndStore releases a store lock, moving the slot's version past the word
// the lock replaced, so every reader of the old word revalidates and fails.
// After a poisoning BeginStore it waits for the slot's pins, as NotifyStore
// does.
func (tm *TM) EndStore(l StoreLock) {
	if l.held {
		tm.locks[l.slot].Store(l.prev + versionInc)
		return
	}
	for tm.pins[l.slot].Load() != 0 {
		runtime.Gosched()
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
// quiescence, after every live transaction has been aborted (the active
// count is not part of the snapshot — it reaches zero through those
// aborts).
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
	slot   uint32
	pinned bool // Commit pinned the slot; released with the locks
	ver    uint64
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
	t.releaseLocks()
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

// releaseLocks drops every write lock, advancing each version past its
// pre-lock value so racing readers revalidate, and then every read pin.
func (t *Txn) releaseLocks() {
	for i := range t.writes {
		w := &t.writes[i]
		if !w.dup {
			t.tm.locks[w.slot].Store(w.prev + versionInc)
		}
	}
	for i := range t.reads {
		if r := &t.reads[i]; r.pinned {
			t.tm.pins[r.slot].Add(-1)
			r.pinned = false
		}
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
	for {
		w := s.Load()
		if committingOther(w, t.id) {
			runtime.Gosched()
			continue
		}
		if w&lockedBit != 0 {
			if w>>ownerShift != t.id {
				return 0, t.abort(ReasonConflict, addr)
			}
			// We hold the slot lock for a colliding address; memory holds
			// the committed value for this one.
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
		if w2 := s.Load(); w2 != w {
			if committingOther(w2, t.id) {
				continue // a commit began under the load: wait, then reread
			}
			return 0, t.abort(ReasonConflict, addr)
		}
		t.reads = append(t.reads, readEntry{slot: slot, ver: w})
		if len(t.reads)+len(t.writes) > t.tm.capacity {
			return 0, t.abort(ReasonCapacity, addr)
		}
		return v, nil
	}
}

// Write buffers a transactional store, eagerly locking the word's slot.
func (t *Txn) Write(addr, val uint32) error { return t.write(addr, val, 0) }

// WriteCommit buffers a last store and commits, as Write then Commit would,
// except that the store's slot is locked already committing: its lock is
// never held by an in-flight transaction, so readers that meet it wait for
// the publish instead of aborting.
func (t *Txn) WriteCommit(addr, val uint32, store func(addr, val uint32) error) error {
	if err := t.write(addr, val, committingBit); err != nil {
		return err
	}
	return t.Commit(store)
}

// write locks addr's slot with lock-word flags state (0 or committingBit)
// and buffers the store.
func (t *Txn) write(addr, val uint32, state uint64) error {
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
			if w&committingBit != 0 {
				runtime.Gosched()
				continue
			}
			return t.abort(ReasonConflict, addr)
		}
		if s.CompareAndSwap(w, t.id<<ownerShift|state|lockedBit) {
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
	// Enter the committing state: every write lock takes the committing
	// bit. A store announced before this poisoned the lock and aborts the
	// commit; one announced after it waits in NotifyStore for the publish.
	for i := range t.writes {
		w := &t.writes[i]
		if w.dup {
			continue
		}
		s := &t.tm.locks[w.slot]
		for {
			cur := s.Load()
			if cur&poisonBit != 0 {
				return t.abort(ReasonNonTxnStore, w.addr)
			}
			if cur&committingBit != 0 || s.CompareAndSwap(cur, cur|committingBit) {
				break
			}
		}
	}
	// Validate the read set, pinning every slot not already ours. The pin
	// is raised before the version is checked and NotifyStore bumps before
	// it checks the pins, so a store notified after this validation waits
	// for the publish.
	for i := range t.reads {
		r := &t.reads[i]
		s := &t.tm.locks[r.slot]
		if w := s.Load(); w&lockedBit != 0 && w>>ownerShift == t.id {
			// We locked this slot after reading it; the pre-lock version
			// must match what we read.
			if !t.lockedFrom(r.slot, r.ver) {
				return t.abort(ReasonConflict, 0)
			}
			continue
		}
		t.tm.pins[r.slot].Add(1)
		r.pinned = true
		if s.Load() != r.ver {
			return t.abort(ReasonConflict, 0)
		}
	}
	if t.tm.commitHook != nil {
		t.tm.commitHook()
	}
	// Publish.
	var err error
	for i := range t.writes {
		w := &t.writes[i]
		if err = store(w.addr, w.val); err != nil {
			break
		}
	}
	t.releaseLocks()
	t.finish()
	return err
}

// lockedFrom reports whether the transaction locked slot from version ver:
// a slot read and then written must not have moved in between.
func (t *Txn) lockedFrom(slot uint32, ver uint64) bool {
	for i := range t.writes {
		if w := &t.writes[i]; w.slot == slot && !w.dup {
			return w.prev == ver
		}
	}
	return false
}
