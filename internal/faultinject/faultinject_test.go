package faultinject

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if got := in.Check(OpTxnCommit, 1, 0); got != ActNone {
		t.Fatalf("nil injector Check = %v, want ActNone", got)
	}
	if got := in.Fired(); got != 0 {
		t.Fatalf("nil injector Fired = %d, want 0", got)
	}
}

func TestAfterAndCountWindow(t *testing.T) {
	in := New(Rule{Op: OpTxnCommit, Action: ActAbort, After: 2, Count: 3})
	var got []Action
	for i := 0; i < 8; i++ {
		got = append(got, in.Check(OpTxnCommit, 1, 0))
	}
	want := []Action{ActNone, ActNone, ActAbort, ActAbort, ActAbort, ActNone, ActNone, ActNone}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d: action = %v, want %v (all: %v)", i+1, got[i], want[i], got)
		}
	}
	if in.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", in.Fired())
	}
}

func TestTIDAndAddrFilters(t *testing.T) {
	in := New(
		Rule{Op: OpHashUnlock, Action: ActStickLock, TID: 2},
		Rule{Op: OpMemStore, Action: ActFault, Addr: 0x100},
	)
	if got := in.Check(OpHashUnlock, 1, 0x40); got != ActNone {
		t.Fatalf("tid 1 unlock = %v, want ActNone", got)
	}
	if got := in.Check(OpHashUnlock, 2, 0x40); got != ActStickLock {
		t.Fatalf("tid 2 unlock = %v, want ActStickLock", got)
	}
	if got := in.Check(OpMemStore, 0, 0x104); got != ActNone {
		t.Fatalf("store 0x104 = %v, want ActNone", got)
	}
	if got := in.Check(OpMemStore, 0, 0x100); got != ActFault {
		t.Fatalf("store 0x100 = %v, want ActFault", got)
	}
	// A rule never fires at a different op site.
	if got := in.Check(OpTxnBegin, 2, 0x100); got != ActNone {
		t.Fatalf("txn-begin = %v, want ActNone", got)
	}
}

func TestPerTIDCountersAreIndependentOfOtherTIDs(t *testing.T) {
	// A rule scoped to TID 3 must not have its counter advanced by
	// other vCPUs' operations.
	in := New(Rule{Op: OpTxnBegin, Action: ActAbort, TID: 3, After: 1, Count: 1})
	for i := 0; i < 10; i++ {
		if got := in.Check(OpTxnBegin, 1, 0); got != ActNone {
			t.Fatalf("tid 1 begin = %v, want ActNone", got)
		}
	}
	if got := in.Check(OpTxnBegin, 3, 0); got != ActNone {
		t.Fatalf("tid 3 first begin = %v, want ActNone (After=1)", got)
	}
	if got := in.Check(OpTxnBegin, 3, 0); got != ActAbort {
		t.Fatalf("tid 3 second begin = %v, want ActAbort", got)
	}
	if got := in.Check(OpTxnBegin, 3, 0); got != ActNone {
		t.Fatalf("tid 3 third begin = %v, want ActNone (Count=1)", got)
	}
}

func TestConcurrentCheckFiresExactly(t *testing.T) {
	// Count rule windows hold under concurrency: with Count=k, exactly
	// k of N concurrent matching calls observe the action.
	const workers, perWorker, k = 8, 1000, 64
	in := New(Rule{Op: OpTxnCommit, Action: ActAbort, Count: k})
	var wg sync.WaitGroup
	hits := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if in.Check(OpTxnCommit, uint32(w+1), 0) == ActAbort {
					hits[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, h := range hits {
		total += h
	}
	if total != k {
		t.Fatalf("total injected = %d, want %d", total, k)
	}
	if in.Fired() != k {
		t.Fatalf("Fired = %d, want %d", in.Fired(), k)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpTxnBegin:   "txn-begin",
		OpTxnCommit:  "txn-commit",
		OpHashUnlock: "hash-unlock",
		OpMemLoad:    "mem-load",
		OpMemStore:   "mem-store",
		Op(250):      "unknown",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

// TestSpecWireForm: the JSON form job requests and adversary repros share
// decodes by its tags, resolves to the Rule it names, and reports the
// offending spec and field.
func TestSpecWireForm(t *testing.T) {
	var specs []Spec
	if err := json.Unmarshal([]byte(`[{"op":"txn-commit","action":"poison","tid":2,"addr":64,"after":3,"count":1}]`), &specs); err != nil {
		t.Fatal(err)
	}
	r, field, err := specs[0].Rule()
	want := Rule{Op: OpTxnCommit, Action: ActPoison, TID: 2, Addr: 64, After: 3, Count: 1}
	if err != nil || field != "" || r != want {
		t.Fatalf("Rule() = %+v, %q, %v; want %+v", r, field, err, want)
	}
	if got := specs[0].String(); got != want.String() {
		t.Errorf("String() = %q, want %q", got, want.String())
	}
	if in, err := FromSpecs(nil); in != nil || err != nil {
		t.Errorf("FromSpecs(nil) = %v, %v; want no injector", in, err)
	}
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Op: "txn-retire", Action: "abort"}, "fault[1].op: "},
		{Spec{Op: "txn-commit", Action: "none"}, "fault[1].action: "},
		{Spec{Op: "mem-load", Action: "fault", TID: 3}, "fault[1].tid: "},
		{Spec{Op: "hash-unlock", Action: "abort"}, "fault[1]: "},
	} {
		_, err := FromSpecs([]Spec{{Op: "txn-begin", Action: "abort"}, tc.spec})
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want prefix %q", tc.spec, err, tc.want)
		}
		if got := tc.spec.String(); got != tc.spec.Op+":"+tc.spec.Action+"(invalid)" {
			t.Errorf("%+v: String() = %q", tc.spec, got)
		}
	}
}
