package htm

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// inWindow installs a commit hook that starts fn on its own goroutine in
// the window between Commit's validation and its publish. The hook waits
// until fn returns or 50 ms pass, whichever is first, and then lets the
// commit publish: an fn that is not held off by the commit finishes
// inside the window, and one that is finishes after the publish. The
// returned channel yields fn's result.
func inWindow[T any](tm *TM, fn func() T) <-chan T {
	out := make(chan T, 1)
	tm.commitHook = func() {
		tm.commitHook = nil
		go func() { out <- fn() }()
		for deadline := time.Now().Add(50 * time.Millisecond); len(out) == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	return out
}

// distinctSlots returns two word addresses with different lock slots.
func distinctSlots(t *testing.T, tm *TM) (a, b uint32) {
	t.Helper()
	a = 0x1000
	for b = a + 4; tm.slot(b) == tm.slot(a); b += 4 {
	}
	return a, b
}

// TestNotifyStoreInCommitWindowSeesPublish is the shape of HST-HTM's lost
// update: the SC transaction reads a hash entry and writes the guest word;
// a foreign LL claims the entry (a plain write announced by NotifyStore)
// and then loads the word. An LL that starts between the SC's validation
// and its publish must load the published value — otherwise both SCs
// succeed on the same old value.
func TestNotifyStoreInCommitWindowSeesPublish(t *testing.T) {
	tm := newTM(t)
	mem := newMemStore()
	entry, word := distinctSlots(t, tm)
	mem.store(word, 1)
	txn := tm.Begin(1, mem.load)
	if _, err := txn.Read(entry); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(word, 2); err != nil {
		t.Fatal(err)
	}
	loaded := inWindow(tm, func() uint32 {
		tm.NotifyStore(entry)
		v, _ := mem.load(word)
		return v
	})
	if err := txn.Commit(mem.store); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if v := <-loaded; v != 2 {
		t.Fatalf("load after NotifyStore = %d, the pre-commit value; want the published 2", v)
	}
}

// TestReadWaitsForCommittingOwner: a transactional read that meets a slot
// locked by a committing transaction waits for the publish and returns the
// published value; it does not abort, because a hardware commit is
// instantaneous to other cores.
func TestReadWaitsForCommittingOwner(t *testing.T) {
	tm := newTM(t)
	mem := newMemStore()
	const word = 0x2000
	mem.store(word, 1)
	writer := tm.Begin(1, mem.load)
	if err := writer.Write(word, 2); err != nil {
		t.Fatal(err)
	}
	type result struct {
		v   uint32
		err error
	}
	reader := tm.Begin(2, mem.load)
	read := inWindow(tm, func() result {
		v, err := reader.Read(word)
		return result{v, err}
	})
	if err := writer.Commit(mem.store); err != nil {
		t.Fatalf("commit: %v", err)
	}
	r := <-read
	if r.err != nil || r.v != 2 {
		t.Fatalf("read of a committing slot = %d, %v; want the published 2 and no abort", r.v, r.err)
	}
	if err := reader.Commit(mem.store); err != nil {
		t.Fatalf("reader commit: %v", err)
	}
}

// TestNotifyStoreWaitsOutWriteCommit: a plain store announced on a slot
// that WriteCommit holds committing waits for the publish, then bumps the
// version, so a reader of the old version cannot commit afterwards.
func TestNotifyStoreWaitsOutWriteCommit(t *testing.T) {
	tm := newTM(t)
	mem := newMemStore()
	const word = 0x3000
	reader := tm.Begin(2, mem.load)
	if _, err := reader.Read(word); err != nil {
		t.Fatal(err)
	}
	writer := tm.Begin(1, mem.load)
	loaded := inWindow(tm, func() uint32 {
		tm.NotifyStore(word)
		v, _ := mem.load(word)
		return v
	})
	if err := writer.WriteCommit(word, 7, mem.store); err != nil {
		t.Fatalf("WriteCommit: %v", err)
	}
	if v := <-loaded; v != 7 {
		t.Fatalf("load after NotifyStore = %d, want the published 7", v)
	}
	var ab *Abort
	if err := reader.Commit(mem.store); !errors.As(err, &ab) || ab.Reason != ReasonConflict {
		t.Fatalf("stale reader commit = %v, want a conflict abort", err)
	}
}

// TestEntryClaimProtocolLosesNoUpdate runs HST-HTM's protocol on the TM
// directly: an LL claims an entry with a plain write, announces it and
// loads the counter; the SC transaction checks the entry still names it
// and writes the incremented counter. Every successful SC must count.
func TestEntryClaimProtocolLosesNoUpdate(t *testing.T) {
	tm := newTM(t)
	mem := newMemStore()
	entry, counter := distinctSlots(t, tm)
	const workers, perWorker = 4, 2000
	var wins atomic.Uint32
	var wg sync.WaitGroup
	for g := uint32(1); g <= workers; g++ {
		wg.Add(1)
		go func(tid uint32) {
			defer wg.Done()
			for n := 0; n < perWorker; {
				mem.store(entry, tid)
				tm.NotifyStore(entry)
				v, _ := mem.load(counter)
				txn := tm.Begin(tid, mem.load)
				owner, err := txn.Read(entry)
				if err != nil {
					continue
				}
				if owner != tid {
					txn.AbortNow(ReasonConflict)
					continue
				}
				if txn.WriteCommit(counter, v+1, mem.store) == nil {
					wins.Add(1)
					n++
				}
			}
		}(g)
	}
	wg.Wait()
	if v, _ := mem.load(counter); v != wins.Load() {
		t.Fatalf("counter = %d after %d successful SCs: %d updates lost", v, wins.Load(), wins.Load()-v)
	}
	if tm.Active() {
		t.Error("transactions leaked")
	}
}

// storeAdd is a plain read-modify-write of word under its store lock, as
// a scheme's fused RMW runs it.
func storeAdd(tm *TM, mem *memStore, word, n uint32) {
	l := tm.BeginStore(word)
	v, _ := mem.load(word)
	mem.store(word, v+n)
	tm.EndStore(l)
}

// TestStoreInCommitWindowLandsAfterPublish: a plain store that begins
// between a commit's validation and its publish waits for the publish.
// Written first, it would be overwritten by the publish and lost.
func TestStoreInCommitWindowLandsAfterPublish(t *testing.T) {
	tm := newTM(t)
	mem := newMemStore()
	const word = 0x4000
	mem.store(word, 1)
	txn := tm.Begin(1, mem.load)
	v, err := txn.Read(word)
	if err != nil {
		t.Fatal(err)
	}
	added := inWindow(tm, func() bool {
		storeAdd(tm, mem, word, 10)
		return true
	})
	if err := txn.WriteCommit(word, v+1, mem.store); err != nil {
		t.Fatalf("WriteCommit: %v", err)
	}
	<-added
	if got, _ := mem.load(word); got != 12 {
		t.Fatalf("word = %d after the commit's 2 and the store's +10, want 12", got)
	}
}

// TestStoreLockAbortsStaleReader: a transaction that read the word before
// a plain store cannot commit after it, and one that reads while the store
// holds the lock waits for the store's value.
func TestStoreLockAbortsStaleReader(t *testing.T) {
	tm := newTM(t)
	mem := newMemStore()
	word, other := distinctSlots(t, tm)
	stale := tm.Begin(1, mem.load)
	if _, err := stale.Read(word); err != nil {
		t.Fatal(err)
	}
	l := tm.BeginStore(word)
	read := make(chan uint32)
	go func() {
		fresh := tm.Begin(2, mem.load)
		v, err := fresh.Read(word)
		if err != nil {
			t.Error(err)
		}
		fresh.AbortNow(ReasonConflict)
		read <- v
	}()
	time.Sleep(10 * time.Millisecond)
	mem.store(word, 5)
	tm.EndStore(l)
	if v := <-read; v != 5 {
		t.Fatalf("read under a store lock = %d, want the store's 5", v)
	}
	if err := stale.Write(other, 1); err != nil {
		t.Fatal(err)
	}
	var ab *Abort
	if err := stale.Commit(mem.store); !errors.As(err, &ab) || ab.Reason != ReasonConflict {
		t.Fatalf("stale reader commit = %v, want a conflict abort", err)
	}
	if tm.Active() {
		t.Error("transactions leaked")
	}
}

// TestStoreLockedAddsAndCommitsLoseNoUpdate mixes store-locked increments
// with transactional ones on one counter: every increment must count.
func TestStoreLockedAddsAndCommitsLoseNoUpdate(t *testing.T) {
	tm := newTM(t)
	mem := newMemStore()
	const word, perWorker = 0x5000, 3000
	var wg sync.WaitGroup
	for g := uint32(1); g <= 4; g++ {
		wg.Add(1)
		go func(tid uint32) {
			defer wg.Done()
			for n := 0; n < perWorker; {
				if tid%2 == 0 {
					storeAdd(tm, mem, word, 1)
					n++
					continue
				}
				txn := tm.Begin(tid, mem.load)
				v, err := txn.Read(word)
				if err == nil && txn.WriteCommit(word, v+1, mem.store) == nil {
					n++
				}
			}
		}(g)
	}
	wg.Wait()
	if v, _ := mem.load(word); v != 4*perWorker {
		t.Fatalf("counter = %d, want %d: %d updates lost", v, 4*perWorker, 4*perWorker-v)
	}
	if tm.Active() {
		t.Error("transactions leaked")
	}
}
