package core

import (
	"errors"
	"testing"

	"atomemu/internal/faultinject"
	"atomemu/internal/hashtab"
	"atomemu/internal/htm"
)

// resFixture builds the HTM schemes around their own TM with an explicit
// policy.
type resFixture struct {
	*fixture
	tm *htm.TM
}

func newResFixture(t *testing.T, bits uint) *resFixture {
	t.Helper()
	f := newFixture(t)
	tm, err := htm.New(bits, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.tm = tm
	for _, c := range f.ctxs {
		c.tm = tm
	}
	return &resFixture{fixture: f, tm: tm}
}

func (f *resFixture) picoHTM(t *testing.T, res *Resilience) *picoHTM {
	t.Helper()
	cm := DefaultCostModel()
	return NewPicoHTM(&cm, f.tm, res).(*picoHTM)
}

func (f *resFixture) hstHTM(t *testing.T, res *Resilience) *hstHTM {
	t.Helper()
	tab, err := NewHashTable(12)
	if err != nil {
		t.Fatal(err)
	}
	cm := DefaultCostModel()
	return NewHSTHTM(&cm, tab, f.tm, res).(*hstHTM)
}

// TestPicoHTMResetAbortsLeakedTxn is the regression test for the
// address-mismatch leak: an SC to a different address than the LL used to
// leave the LL's transaction open forever, permanently pinning tm.Active()
// and with it NotifyStore's slow path.
func TestPicoHTMResetAbortsLeakedTxn(t *testing.T) {
	f := newResFixture(t, 12)
	s := f.picoHTM(t, &Resilience{StrictPaper: true})
	a := f.ctx(1)
	b := f.ctx(2)
	if fl := f.mem.StoreWord(varAddr, 100); fl != nil {
		t.Fatal(fl)
	}
	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	// Intervening stores while the window is open.
	if err := s.Store(b, varAddr+8, 1); err != nil {
		t.Fatal(err)
	}
	r, err := s.SC(a, varAddr+4, 7) // mismatched address
	if err != nil || r != 1 {
		t.Fatalf("mismatched-address SC: r=%d err=%v", r, err)
	}
	if f.tm.Active() {
		t.Fatal("mismatched-address SC leaked a live transaction (tm still active)")
	}
	// The TM must be fully usable afterwards.
	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	if r, err := s.SC(a, varAddr, 101); err != nil || r != 0 {
		t.Fatalf("follow-up SC: r=%d err=%v", r, err)
	}
	if v, _ := f.mem.LoadWord(varAddr); v != 101 {
		t.Fatalf("mem = %d, want 101", v)
	}
	if f.tm.Active() {
		t.Fatal("tm active after clean window")
	}
}

// TestPicoHTMAbortStormRequestsDemotion drives every transactional attempt
// of tid 1 into an abort and checks the default policy retries with
// backoff maxRetries times, then gives the window up — the LL loads
// directly, the SC fails — and that the guest's retries give their windows
// up at once until the streak reaches the livelock limit, where the
// monitor asks the engine to demote the machine. Counting the fallback is
// the engine's job, once per machine.
func TestPicoHTMAbortStormRequestsDemotion(t *testing.T) {
	f := newResFixture(t, 12)
	f.tm.SetInjector(faultinject.New(faultinject.Rule{
		Op: faultinject.OpTxnBegin, Action: faultinject.ActAbort, TID: 1,
	}))
	s := f.picoHTM(t, nil)
	a := f.ctx(1)
	if fl := f.mem.StoreWord(varAddr, 100); fl != nil {
		t.Fatal(fl)
	}
	givenUp := func() {
		t.Helper()
		v, err := s.LL(a, varAddr)
		if err != nil {
			t.Fatalf("LL should give the window up, not fail: %v", err)
		}
		if v != 100 {
			t.Fatalf("LL = %d, want 100", v)
		}
		if r, err := s.SC(a, varAddr, 101); err != nil || r != 1 {
			t.Fatalf("SC of a given-up window must fail: r=%d err=%v", r, err)
		}
	}
	givenUp()
	if a.st.HTMRetries != maxRetries || a.st.HTMBackoffWaits != maxRetries || a.mon.Demote {
		t.Fatalf("retries=%d backoffs=%d demote=%v, want %d/%d/false",
			a.st.HTMRetries, a.st.HTMBackoffWaits, a.mon.Demote, maxRetries, maxRetries)
	}
	for a.mon.AbortStreak < s.livelockLimit {
		givenUp()
		if a.mon.Demote {
			t.Fatalf("streak %d asked for a demotion below the livelock limit %d", a.mon.AbortStreak, s.livelockLimit)
		}
	}
	givenUp()
	if !a.mon.Demote || a.st.HTMRetries != maxRetries {
		t.Fatalf("streak %d: demote=%v retries=%d, want a demotion and no further backoff",
			a.mon.AbortStreak, a.mon.Demote, a.st.HTMRetries)
	}
	if a.st.SchemeFallbacks != 0 {
		t.Fatalf("fallbacks=%d, want 0: the engine counts the demotion", a.st.SchemeFallbacks)
	}
	if v, _ := f.mem.LoadWord(varAddr); v != 100 {
		t.Fatalf("mem = %d, want 100", v)
	}
	if f.tm.Active() {
		t.Fatal("given-up window leaked a live transaction")
	}
	// Other tids keep the transactional fast path and ask for nothing.
	b := f.ctx(2)
	if _, err := s.LL(b, varAddr); err != nil {
		t.Fatal(err)
	}
	if r, err := s.SC(b, varAddr, 103); err != nil || r != 0 {
		t.Fatalf("tid-2 SC: r=%d err=%v", r, err)
	}
	if b.mon.Demote || b.st.HTMCommits != 1 {
		t.Fatalf("tid 2 should commit transactionally: demote=%v commits=%d", b.mon.Demote, b.st.HTMCommits)
	}
}

// TestPicoHTMDemotesOnlyAtLivelockLimit: an abort that retrying cannot
// fix (emulation work inside the window, as on the first pass of a window
// whose tail block is translated inside the transaction) fails the SC and
// nothing more; a successful window clears the streak, and only a streak
// past the livelock limit asks for the demotion — where StrictPaper
// reports livelock instead.
func TestPicoHTMDemotesOnlyAtLivelockLimit(t *testing.T) {
	for _, strict := range []bool{false, true} {
		f := newResFixture(t, 12)
		s := f.picoHTM(t, &Resilience{StrictPaper: strict})
		a := f.ctx(1)
		abortedWindow := func() error {
			t.Helper()
			if _, err := s.LL(a, varAddr); err != nil {
				t.Fatal(err)
			}
			a.mon.Txn.AbortNow(htm.ReasonEmulation)
			r, err := s.SC(a, varAddr, 1)
			if r != 1 {
				t.Fatalf("strict=%v: doomed SC: r=%d", strict, r)
			}
			return err
		}
		if err := abortedWindow(); err != nil || a.mon.Demote {
			t.Fatalf("strict=%v: one emulation abort: err=%v demote=%v", strict, err, a.mon.Demote)
		}
		if _, err := s.LL(a, varAddr); err != nil {
			t.Fatal(err)
		}
		if r, err := s.SC(a, varAddr, 2); err != nil || r != 0 || a.mon.AbortStreak != 0 {
			t.Fatalf("strict=%v: clean window: r=%d err=%v streak=%d", strict, r, err, a.mon.AbortStreak)
		}
		for range s.livelockLimit {
			if err := abortedWindow(); err != nil || a.mon.Demote {
				t.Fatalf("strict=%v: streak %d: err=%v demote=%v", strict, a.mon.AbortStreak, err, a.mon.Demote)
			}
		}
		err := abortedWindow()
		var eerr *EmulationError
		if strict != errors.As(err, &eerr) || a.mon.Demote == strict {
			t.Fatalf("strict=%v: streak %d: err=%v demote=%v", strict, a.mon.AbortStreak, err, a.mon.Demote)
		}
	}
}

// TestHSTHTMDemotesToStopTheWorld drives the HST-HTM SC transaction into a
// commit-abort storm and checks that the SC falls back to the
// stop-the-world path and completes, and that the next SC tries the
// transaction again.
func TestHSTHTMDemotesToStopTheWorld(t *testing.T) {
	f := newResFixture(t, 12)
	f.tm.SetInjector(faultinject.New(faultinject.Rule{
		Op: faultinject.OpTxnCommit, Action: faultinject.ActAbort, TID: 1,
	}))
	s := f.hstHTM(t, nil)
	a := f.ctx(1)
	if fl := f.mem.StoreWord(varAddr, 100); fl != nil {
		t.Fatal(fl)
	}
	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	if r, err := s.SC(a, varAddr, 101); err != nil || r != 0 {
		t.Fatalf("SC should complete via fallback: r=%d err=%v", r, err)
	}
	if v, _ := f.mem.LoadWord(varAddr); v != 101 {
		t.Fatalf("mem = %d, want 101", v)
	}
	if a.st.SchemeFallbacks != 1 || a.st.HTMRetries != maxRetries {
		t.Fatalf("fallbacks=%d retries=%d, want 1/%d", a.st.SchemeFallbacks, a.st.HTMRetries, maxRetries)
	}
	if a.mon.Demote {
		t.Fatal("hst-htm must not ask for a machine demotion")
	}
	aborts := a.st.HTMAborts
	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	if r, err := s.SC(a, varAddr, 102); err != nil || r != 0 {
		t.Fatalf("second SC: r=%d err=%v", r, err)
	}
	if a.st.HTMAborts == aborts || a.st.SchemeFallbacks != 2 {
		t.Fatalf("second SC should retry the transaction, then fall back: aborts %d -> %d, fallbacks=%d",
			aborts, a.st.HTMAborts, a.st.SchemeFallbacks)
	}
}

// TestHSTHTMStrictKeepsFixedFallback: StrictPaper mode preserves the
// paper's fixed attempt count before the stop-the-world fallback.
func TestHSTHTMStrictKeepsFixedFallback(t *testing.T) {
	f := newResFixture(t, 12)
	f.tm.SetInjector(faultinject.New(faultinject.Rule{
		Op: faultinject.OpTxnCommit, Action: faultinject.ActAbort, TID: 1,
	}))
	s := f.hstHTM(t, &Resilience{StrictPaper: true})
	a := f.ctx(1)
	if fl := f.mem.StoreWord(varAddr, 100); fl != nil {
		t.Fatal(fl)
	}
	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	if r, err := s.SC(a, varAddr, 101); err != nil || r != 0 {
		t.Fatalf("strict SC should fall back after fixed attempts: r=%d err=%v", r, err)
	}
	if a.st.HTMAborts != uint64(s.fallbackAfter) {
		t.Fatalf("aborts=%d, want the fixed bound %d", a.st.HTMAborts, s.fallbackAfter)
	}
	if a.st.HTMRetries != 0 || a.st.SchemeFallbacks != 0 {
		t.Fatalf("strict mode must not use resilience counters: retries=%d fallbacks=%d",
			a.st.HTMRetries, a.st.SchemeFallbacks)
	}
}

// TestHSTWeakSetWaitWatchdog: a stuck hash-entry lock holder makes the
// bounded SetWait spin give up with a structured watchdog diagnostic
// instead of hanging the vCPU.
func TestHSTWeakSetWaitWatchdog(t *testing.T) {
	f := newFixture(t)
	tab, err := NewHashTable(12)
	if err != nil {
		t.Fatal(err)
	}
	tab.SpinBudget = 64
	s, err := New("hst-weak", Deps{Htab: tab})
	if err != nil {
		t.Fatal(err)
	}
	// tid 9 claims and locks the entry, then never releases.
	tab.Set(varAddr, 9)
	if !tab.Lock(varAddr, 9) {
		t.Fatal("lock setup failed")
	}
	a := f.ctx(1)
	_, err = s.LL(a, varAddr)
	var werr *WatchdogError
	if !errors.As(err, &werr) {
		t.Fatalf("LL against a stuck lock should trip the watchdog, got %v", err)
	}
	if werr.Scheme != "hst-weak" || werr.TID != 1 || werr.Addr != varAddr {
		t.Fatalf("diagnostic = %+v", werr)
	}
	if !werr.HasOwner || werr.HashOwner&^hashtab.LockBit != 9 {
		t.Fatalf("diagnostic owner = %#x, want tid 9", werr.HashOwner)
	}
	if a.st.WatchdogTrips != 1 {
		t.Fatalf("WatchdogTrips = %d, want 1", a.st.WatchdogTrips)
	}
}
