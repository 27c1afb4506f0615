package core

import (
	"errors"
	"testing"

	"atomemu/internal/faultinject"
	"atomemu/internal/hashtab"
	"atomemu/internal/htm"
)

// resFixture builds a pico-htm scheme around a small TM (16 slots, so
// slot-aliasing addresses are easy to find) with an explicit policy.
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

// TestPicoHTMDegradesUnderAbortStorm drives every transactional attempt of
// tid 1 into an abort and checks the default policy retries with backoff
// maxRetries times, then demotes and completes the LL/SC window on the
// degraded path.
func TestPicoHTMDegradesUnderAbortStorm(t *testing.T) {
	f := newResFixture(t, 12)
	f.tm.SetInjector(faultinject.New(faultinject.Rule{
		Op: faultinject.OpTxnBegin, Action: faultinject.ActAbort, TID: 1,
	}))
	s := f.picoHTM(t, nil)
	a := f.ctx(1)
	if fl := f.mem.StoreWord(varAddr, 100); fl != nil {
		t.Fatal(fl)
	}
	v, err := s.LL(a, varAddr)
	if err != nil {
		t.Fatalf("LL should degrade, not fail: %v", err)
	}
	if v != 100 {
		t.Fatalf("LL = %d, want 100", v)
	}
	if !a.mon.Degraded {
		t.Fatal("monitor should be degraded after exhausting retries")
	}
	if a.st.HTMRetries != maxRetries || a.st.HTMBackoffWaits != maxRetries {
		t.Fatalf("retries=%d backoffs=%d, want %d/%d", a.st.HTMRetries, a.st.HTMBackoffWaits, maxRetries, maxRetries)
	}
	if a.st.SchemeFallbacks != 1 {
		t.Fatalf("fallbacks=%d, want 1", a.st.SchemeFallbacks)
	}
	if r, err := s.SC(a, varAddr, 101); err != nil || r != 0 {
		t.Fatalf("degraded SC: r=%d err=%v", r, err)
	}
	if v, _ := f.mem.LoadWord(varAddr); v != 101 {
		t.Fatalf("mem = %d, want 101", v)
	}
	// The remaining cooldown windows skip the doomed transactional path
	// outright: no further retries are burned.
	before := a.st.HTMRetries
	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	if r, err := s.SC(a, varAddr, 102); err != nil || r != 0 {
		t.Fatalf("cooldown SC: r=%d err=%v", r, err)
	}
	if a.st.HTMRetries != before {
		t.Fatal("cooldown windows must not retry transactions")
	}
	// Other tids keep the transactional fast path.
	b := f.ctx(2)
	if _, err := s.LL(b, varAddr); err != nil {
		t.Fatal(err)
	}
	if r, err := s.SC(b, varAddr, 103); err != nil || r != 0 {
		t.Fatalf("tid-2 SC: r=%d err=%v", r, err)
	}
	if b.st.SchemeFallbacks != 0 || b.st.HTMCommits != 1 {
		t.Fatalf("tid 2 should commit transactionally: fallbacks=%d commits=%d",
			b.st.SchemeFallbacks, b.st.HTMCommits)
	}
}

// TestPicoHTMDegradedWindowCatchesABA checks the degraded window's
// slot-word snapshot: a foreign store that restores the original value
// (classic ABA) still fails the SC, because the store bumped the version.
func TestPicoHTMDegradedWindowCatchesABA(t *testing.T) {
	f := newResFixture(t, 12)
	f.tm.SetInjector(faultinject.New(faultinject.Rule{
		Op: faultinject.OpTxnBegin, Action: faultinject.ActAbort, TID: 1,
	}))
	s := f.picoHTM(t, nil)
	a, b := f.ctx(1), f.ctx(2)
	if fl := f.mem.StoreWord(varAddr, 100); fl != nil {
		t.Fatal(fl)
	}
	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	if !a.mon.Degraded {
		t.Fatal("window should be degraded")
	}
	// ABA: tid 2 swaps the value away and back between LL and SC.
	if err := s.Store(b, varAddr, 55); err != nil {
		t.Fatal(err)
	}
	if err := s.Store(b, varAddr, 100); err != nil {
		t.Fatal(err)
	}
	if r, err := s.SC(a, varAddr, 101); err != nil || r != 1 {
		t.Fatalf("ABA'd degraded SC must fail: r=%d err=%v", r, err)
	}
	// The guest's retry (fresh LL) then succeeds.
	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	if r, err := s.SC(a, varAddr, 101); err != nil || r != 0 {
		t.Fatalf("retry SC: r=%d err=%v", r, err)
	}
	if v, _ := f.mem.LoadWord(varAddr); v != 101 {
		t.Fatalf("mem = %d, want 101", v)
	}
}

// TestPicoHTMDegradedWindowAdoptsOwnAliasingStore: a store by the degraded
// window's own vCPU to an address aliasing the monitored slot must not fail
// the SC — the guest would retry the identical window forever.
func TestPicoHTMDegradedWindowAdoptsOwnAliasingStore(t *testing.T) {
	f := newResFixture(t, 4) // 16 slots: aliases are nearby
	f.tm.SetInjector(faultinject.New(faultinject.Rule{
		Op: faultinject.OpTxnBegin, Action: faultinject.ActAbort, TID: 1,
	}))
	s := f.picoHTM(t, nil)
	a := f.ctx(1)
	alias := uint32(0)
	for cand := varAddr + 4; cand < varAddr+4096; cand += 4 {
		if f.tm.SameSlot(varAddr, uint32(cand)) {
			alias = uint32(cand)
			break
		}
	}
	if alias == 0 {
		t.Fatal("no slot alias found in range")
	}
	if fl := f.mem.StoreWord(varAddr, 100); fl != nil {
		t.Fatal(fl)
	}
	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	if !a.mon.Degraded {
		t.Fatal("window should be degraded")
	}
	// Scratch store inside the window to a slot-aliasing address.
	if err := s.Store(a, alias, 7); err != nil {
		t.Fatal(err)
	}
	if r, err := s.SC(a, varAddr, 101); err != nil || r != 0 {
		t.Fatalf("own aliasing store must not fail the degraded SC: r=%d err=%v", r, err)
	}
	if v, _ := f.mem.LoadWord(varAddr); v != 101 {
		t.Fatalf("mem = %d, want 101", v)
	}
	if v, _ := f.mem.LoadWord(alias); v != 7 {
		t.Fatalf("alias mem = %d, want 7", v)
	}
}

// TestHSTHTMDemotesToStopTheWorld drives the HST-HTM SC transaction into a
// commit-abort storm and checks it demotes to the stop-the-world fallback
// (completing the SC) and that cooldown windows skip the storm entirely.
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
	// During cooldown the SC takes the fallback directly: no new aborts.
	aborts := a.st.HTMAborts
	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	if r, err := s.SC(a, varAddr, 102); err != nil || r != 0 {
		t.Fatalf("cooldown SC: r=%d err=%v", r, err)
	}
	if a.st.HTMAborts != aborts {
		t.Fatal("cooldown SC must not re-run the abort storm")
	}
	if a.st.ExclSections == 0 && v(t, f, varAddr) != 102 {
		t.Fatal("fallback should have used the exclusive section")
	}
}

func v(t *testing.T, f *resFixture, addr uint32) uint32 {
	t.Helper()
	x, fl := f.mem.LoadWord(addr)
	if fl != nil {
		t.Fatal(fl)
	}
	return x
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
