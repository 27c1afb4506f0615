package htm

import (
	"errors"
	"testing"

	"atomemu/internal/faultinject"
)

func TestInjectedBeginAbortDoomsTxn(t *testing.T) {
	tm := newTM(t)
	mem := newMemStore()
	tm.SetInjector(faultinject.New(faultinject.Rule{
		Op: faultinject.OpTxnBegin, Action: faultinject.ActAbort, TID: 5, Count: 1,
	}))
	txn := tm.Begin(5, mem.load)
	_, err := txn.Read(0x10)
	var ab *Abort
	if !errors.As(err, &ab) || ab.Reason != ReasonConflict {
		t.Fatalf("doomed txn should abort with ReasonConflict, got %v", err)
	}
	if why, ok := txn.AbortReason(); !ok || why != ReasonConflict {
		t.Fatalf("AbortReason = %v,%v", why, ok)
	}
	// Other tids are unaffected.
	other := tm.Begin(6, mem.load)
	if _, err := other.Read(0x10); err != nil {
		t.Fatalf("tid 6 should be untouched: %v", err)
	}
	if err := other.Commit(mem.store); err != nil {
		t.Fatal(err)
	}
}

func TestInjectedCommitPoisonAborts(t *testing.T) {
	tm := newTM(t)
	mem := newMemStore()
	tm.SetInjector(faultinject.New(faultinject.Rule{
		Op: faultinject.OpTxnCommit, Action: faultinject.ActPoison, Count: 1,
	}))
	txn := tm.Begin(1, mem.load)
	if err := txn.Write(0x20, 99); err != nil {
		t.Fatal(err)
	}
	err := txn.Commit(mem.store)
	var ab *Abort
	if !errors.As(err, &ab) || ab.Reason != ReasonNonTxnStore {
		t.Fatalf("poisoned commit should abort with ReasonNonTxnStore, got %v", err)
	}
	if v, _ := mem.load(0x20); v != 0 {
		t.Fatalf("aborted commit leaked a write: %d", v)
	}
	if tm.Active() {
		t.Fatal("aborted txn left the TM active")
	}
	// The rule's window is spent; the retry commits cleanly.
	retry := tm.Begin(1, mem.load)
	if err := retry.Write(0x20, 99); err != nil {
		t.Fatal(err)
	}
	if err := retry.Commit(mem.store); err != nil {
		t.Fatalf("retry after spent rule: %v", err)
	}
}
