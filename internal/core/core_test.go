package core

import (
	"errors"
	"sync"
	"testing"

	"atomemu/internal/htm"
	"atomemu/internal/mmu"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

// fakeCtx implements Context for scheme unit tests. All fake contexts of one
// fixture share memory and an exclusive mutex; each has its own tid,
// monitor and stats.
type fakeCtx struct {
	tid  uint32
	mem  *mmu.Memory
	mon  Monitor
	st   stats.CPU
	excl *sync.Mutex
	tm   *htm.TM
	ring *obs.Ring
}

func (c *fakeCtx) TID() uint32                            { return c.tid }
func (c *fakeCtx) Mem() *mmu.Memory                       { return c.mem }
func (c *fakeCtx) Monitor() *Monitor                      { return &c.mon }
func (c *fakeCtx) StartExclusive()                        { c.excl.Lock() }
func (c *fakeCtx) EndExclusive()                          { c.excl.Unlock() }
func (c *fakeCtx) ChargeExclusive()                       { c.st.ExclSections++ }
func (c *fakeCtx) Stats() *stats.CPU                      { return &c.st }
func (c *fakeCtx) Charge(comp stats.Component, cy uint64) { c.st.Charge(comp, cy) }
func (c *fakeCtx) TM() *htm.TM                            { return c.tm }
func (c *fakeCtx) RunningCPUs() int                       { return len(c.excls()) }
func (c *fakeCtx) Tracer() *obs.Ring                      { return c.ring }

// excls is a small helper so the fake reports a plausible CPU count.
func (c *fakeCtx) excls() []int { return []int{1} }

type fixture struct {
	mem  *mmu.Memory
	excl sync.Mutex
	tm   *htm.TM
	ctxs map[uint32]*fakeCtx
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	mem := mmu.New(16 << 20)
	if err := mem.Map(0x10000, 4*mmu.PageSize, mmu.PermRW); err != nil {
		t.Fatal(err)
	}
	tm, err := htm.New(14, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{mem: mem, tm: tm, ctxs: make(map[uint32]*fakeCtx)}
}

func (f *fixture) ctx(tid uint32) *fakeCtx {
	c := f.ctxs[tid]
	if c == nil {
		c = &fakeCtx{tid: tid, mem: f.mem, excl: &f.excl, tm: f.tm}
		f.ctxs[tid] = c
	}
	return c
}

func (f *fixture) scheme(t *testing.T, name string) Scheme {
	t.Helper()
	tab, err := NewHashTable(12)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(name, Deps{Htab: tab, TM: f.tm})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const varAddr = 0x10040

func TestNewAllSchemes(t *testing.T) {
	f := newFixture(t)
	for _, name := range SchemeNames() {
		s := f.scheme(t, name)
		if s.Name() != name {
			t.Errorf("scheme %q reports name %q", name, s.Name())
		}
	}
	if _, err := New("bogus", Deps{}); err == nil {
		t.Error("unknown scheme should fail")
	}
	if _, err := New("hst", Deps{}); err == nil {
		t.Error("hst without hash table should fail")
	}
	if _, err := New("pico-htm", Deps{}); err == nil {
		t.Error("pico-htm without TM should fail")
	}
}

func TestTableIIMetadata(t *testing.T) {
	f := newFixture(t)
	want := map[string]struct {
		atom     Atomicity
		portable bool
		stores   bool
	}{
		"pico-cas":  {AtomicityIncorrect, true, false},
		"pico-st":   {AtomicityStrong, true, true},
		"pico-htm":  {AtomicityStrong, false, true},
		"hst":       {AtomicityStrong, true, true},
		"hst-weak":  {AtomicityWeak, true, false},
		"hst-htm":   {AtomicityStrong, false, true},
		"pst":       {AtomicityStrong, true, true},
		"pst-remap": {AtomicityStrong, true, true},
		"pst-mpk":   {AtomicityStrong, true, true},
	}
	for name, w := range want {
		s := f.scheme(t, name)
		if s.Atomicity() != w.atom {
			t.Errorf("%s atomicity = %v, want %v", name, s.Atomicity(), w.atom)
		}
		if s.Portable() != w.portable {
			t.Errorf("%s portable = %v, want %v", name, s.Portable(), w.portable)
		}
		if s.InstrumentsStores() != w.stores {
			t.Errorf("%s instrumentsStores = %v, want %v", name, s.InstrumentsStores(), w.stores)
		}
	}
}

// basicLLSC checks the happy path: LL reads, SC with no interference
// succeeds, a second SC without LL fails.
func basicLLSC(t *testing.T, name string) {
	t.Helper()
	f := newFixture(t)
	s := f.scheme(t, name)
	a := f.ctx(1)
	if f := f.mem.StoreWord(varAddr, 100); f != nil {
		t.Fatal(f)
	}
	v, err := s.LL(a, varAddr)
	if err != nil || v != 100 {
		t.Fatalf("%s: LL = %d, %v", name, v, err)
	}
	st, err := s.SC(a, varAddr, 101)
	if err != nil || st != 0 {
		t.Fatalf("%s: SC = %d, %v", name, st, err)
	}
	got, _ := f.mem.LoadWord(varAddr)
	if got != 101 {
		t.Fatalf("%s: value after SC = %d", name, got)
	}
	// SC without a preceding LL must fail.
	st, err = s.SC(a, varAddr, 102)
	if err != nil || st != 1 {
		t.Fatalf("%s: orphan SC = %d, %v (want failure)", name, st, err)
	}
	got, _ = f.mem.LoadWord(varAddr)
	if got != 101 {
		t.Fatalf("%s: orphan SC modified memory: %d", name, got)
	}
}

func TestBasicLLSCAllSchemes(t *testing.T) {
	for _, name := range SchemeNames() {
		t.Run(name, func(t *testing.T) { basicLLSC(t, name) })
	}
}

// interveningSC checks that an LL/SC by another thread between a thread's LL
// and SC fails the outer SC — required by weak AND strong atomicity (the
// paper's Seq2 core).
func interveningSC(t *testing.T, name string) {
	t.Helper()
	f := newFixture(t)
	s := f.scheme(t, name)
	a, b := f.ctx(1), f.ctx(2)
	f.mem.StoreWord(varAddr, 5)

	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	// Thread b: LL, SC to d, then LL, SC back to 5 (the ABA dance).
	if _, err := s.LL(b, varAddr); err != nil {
		t.Fatal(err)
	}
	if st, err := s.SC(b, varAddr, 6); err != nil || st != 0 {
		t.Fatalf("%s: b's first SC = %d, %v", name, st, err)
	}
	if _, err := s.LL(b, varAddr); err != nil {
		t.Fatal(err)
	}
	if st, err := s.SC(b, varAddr, 5); err != nil || st != 0 {
		t.Fatalf("%s: b's second SC = %d, %v", name, st, err)
	}
	// Value is back to 5 — PICO-CAS is fooled, everyone else must fail.
	st, err := s.SC(a, varAddr, 7)
	if err != nil {
		t.Fatal(err)
	}
	wantFail := name != "pico-cas"
	if wantFail && st != 1 {
		t.Errorf("%s: SC after ABA dance succeeded — ABA problem", name)
	}
	if !wantFail && st != 0 {
		t.Errorf("pico-cas: expected the ABA success (that is its bug), got failure")
	}
}

func TestInterveningSCAllSchemes(t *testing.T) {
	for _, name := range SchemeNames() {
		t.Run(name, func(t *testing.T) { interveningSC(t, name) })
	}
}

// interveningStore checks Seq1: a plain store of the same value between LL
// and SC. Strong-atomicity schemes must fail the SC; weak/incorrect ones
// succeed. With byteStore the stores are byte stores to the word's low
// lane, which instrumented schemes take through RMW.
func interveningStore(t *testing.T, name string, byteStore bool) {
	t.Helper()
	f := newFixture(t)
	s := f.scheme(t, name)
	a, b := f.ctx(1), f.ctx(2)
	f.mem.StoreWord(varAddr, 5)

	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	// Thread b stores 6 then 5 (restoring the value) via the scheme's
	// instrumented store path (or plain stores when not instrumented).
	storeVia := func(val uint32) {
		var err error
		switch {
		case byteStore && s.InstrumentsStores():
			_, err = s.RMW(b, varAddr, mmu.Update{Kind: mmu.UpdateByte, Operand: val})
		case byteStore:
			if f := f.mem.StoreByte(varAddr, uint8(val)); f != nil {
				err = f
			}
		case s.InstrumentsStores():
			err = s.Store(b, varAddr, val)
		default:
			if f := f.mem.StoreWord(varAddr, val); f != nil {
				err = f
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	storeVia(6)
	storeVia(5)
	st, err := s.SC(a, varAddr, 7)
	if err != nil {
		t.Fatal(err)
	}
	wantFail := s.Atomicity() == AtomicityStrong
	if wantFail && st != 1 {
		t.Errorf("%s claims strong atomicity but missed an intervening store", name)
	}
	if !wantFail && st != 0 {
		t.Errorf("%s (%v) should not detect plain stores, SC = %d", name, s.Atomicity(), st)
	}
}

func TestInterveningStoreAllSchemes(t *testing.T) {
	for _, name := range SchemeNames() {
		t.Run(name, func(t *testing.T) {
			t.Run("word", func(t *testing.T) { interveningStore(t, name, false) })
			t.Run("byte", func(t *testing.T) { interveningStore(t, name, true) })
		})
	}
}

// interveningRMW checks that an atomic RMW by another thread between a
// thread's LL and SC fails the SC even when it leaves the value unchanged:
// an RMW is an atomic operation, so weak atomicity must see it too. Only
// pico-cas, which compares values, succeeds (ABA).
func interveningRMW(t *testing.T, name string) {
	t.Helper()
	f := newFixture(t)
	s := f.scheme(t, name)
	a, b := f.ctx(1), f.ctx(2)
	f.mem.StoreWord(varAddr, 5)

	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	old, err := s.RMW(b, varAddr, mmu.Update{Kind: mmu.UpdateXchg, Operand: 5})
	if err != nil || old != 5 {
		t.Fatalf("%s: RMW = %d, %v", name, old, err)
	}
	st, err := s.SC(a, varAddr, 7)
	if err != nil {
		t.Fatal(err)
	}
	wantFail := s.Atomicity() >= AtomicityWeak
	if wantFail && st != 1 {
		t.Errorf("%s (%v): SC succeeded across an intervening RMW", name, s.Atomicity())
	}
	if !wantFail && st != 0 {
		t.Errorf("%s: expected the ABA success (that is its bug), got failure", name)
	}
}

func TestInterveningRMWAllSchemes(t *testing.T) {
	for _, name := range SchemeNames() {
		t.Run(name, func(t *testing.T) { interveningRMW(t, name) })
	}
}

// TestOwnStoreDoesNotBreakMonitor: per the architecture (paper §II-A), a
// store from the monitoring thread itself does not clear its exclusive flag.
func TestOwnStoreDoesNotBreakMonitor(t *testing.T) {
	for _, name := range []string{"pico-st", "hst", "pst", "pst-remap", "pst-mpk"} {
		t.Run(name, func(t *testing.T) {
			f := newFixture(t)
			s := f.scheme(t, name)
			a := f.ctx(1)
			f.mem.StoreWord(varAddr, 5)
			if _, err := s.LL(a, varAddr); err != nil {
				t.Fatal(err)
			}
			if err := s.Store(a, varAddr, 6); err != nil {
				t.Fatal(err)
			}
			st, err := s.SC(a, varAddr, 7)
			if err != nil || st != 0 {
				t.Fatalf("own store broke the monitor: SC = %d, %v", st, err)
			}
		})
	}
}

func TestClrexDropsMonitor(t *testing.T) {
	for _, name := range SchemeNames() {
		t.Run(name, func(t *testing.T) {
			f := newFixture(t)
			s := f.scheme(t, name)
			a := f.ctx(1)
			if _, err := s.LL(a, varAddr); err != nil {
				t.Fatal(err)
			}
			s.Clrex(a)
			st, err := s.SC(a, varAddr, 9)
			if err != nil || st != 1 {
				t.Fatalf("SC after clrex = %d, %v (want failure)", st, err)
			}
		})
	}
}

func TestLLToDifferentAddressFailsOldSC(t *testing.T) {
	// Only one monitor per thread: LL y after LL x means SC x fails.
	for _, name := range SchemeNames() {
		t.Run(name, func(t *testing.T) {
			f := newFixture(t)
			s := f.scheme(t, name)
			a := f.ctx(1)
			const x, y = varAddr, varAddr + 0x100
			if _, err := s.LL(a, x); err != nil {
				t.Fatal(err)
			}
			if _, err := s.LL(a, y); err != nil {
				t.Fatal(err)
			}
			st, err := s.SC(a, x, 1)
			if err != nil || st != 1 {
				t.Fatalf("SC to superseded address = %d, %v (want failure)", st, err)
			}
			st, err = s.SC(a, y, 2)
			// The failed SC to x dropped the monitor entirely (matching the
			// architectural rule that any SC consumes the monitor).
			if err != nil || st != 1 {
				t.Fatalf("SC after consuming SC = %d, %v", st, err)
			}
		})
	}
}

func TestPSTFalseSharingCounted(t *testing.T) {
	f := newFixture(t)
	s := f.scheme(t, "pst")
	a, b := f.ctx(1), f.ctx(2)
	f.mem.StoreWord(varAddr, 1)
	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	// b stores to the same page, different word: false sharing.
	other := uint32(varAddr + 64)
	if err := s.Store(b, other, 42); err != nil {
		t.Fatal(err)
	}
	if b.st.PageFaults != 1 || b.st.FalseSharing != 1 {
		t.Errorf("faults=%d falseSharing=%d, want 1/1", b.st.PageFaults, b.st.FalseSharing)
	}
	// The store landed despite the read-only page.
	if v, _ := f.mem.LoadWord(other); v != 42 {
		t.Errorf("false-sharing store lost: %d", v)
	}
	// And the monitor survived.
	st, err := s.SC(a, varAddr, 2)
	if err != nil || st != 0 {
		t.Fatalf("SC after false sharing = %d, %v", st, err)
	}
	// Page protection restored after the last monitor left.
	if p := f.mem.PermAt(varAddr); p != mmu.PermRW {
		t.Errorf("page perm after SC = %v, want rw-", p)
	}
}

func TestPSTStoreToUnmappedStillFaults(t *testing.T) {
	f := newFixture(t)
	s := f.scheme(t, "pst")
	b := f.ctx(2)
	err := s.Store(b, 0x4000_0000, 1)
	var fault *mmu.Fault
	if !errors.As(err, &fault) || fault.Kind != mmu.FaultUnmapped {
		t.Fatalf("expected unmapped fault, got %v", err)
	}
}

func TestPSTRemapWindowBlocksAndResumes(t *testing.T) {
	f := newFixture(t)
	s := f.scheme(t, "pst-remap").(*pst)
	a, b := f.ctx(1), f.ctx(2)
	f.mem.StoreWord(varAddr, 10)

	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	// Open the remap window by hand: lock the page and remap.
	base := mmu.PageBase(varAddr)
	p := s.lookup(base)
	p.pmu.Lock()
	alias := AliasRegionBase + a.TID()*mmu.PageSize
	if err := f.mem.Remap(base, alias, mmu.PermRW); err != nil {
		t.Fatal(err)
	}
	// b's store now faults MAPERR and must block until the window closes.
	// It charges the fault before it waits on the page lock.
	wb := &chargeSignal{fakeCtx: b, charged: make(chan struct{}, 1)}
	done := make(chan error, 1)
	go func() { done <- s.Store(wb, varAddr+8, 77) }()
	select {
	case <-wb.charged:
	case err := <-done:
		t.Fatalf("store completed during remap window: %v", err)
	}
	select {
	case err := <-done:
		t.Fatalf("store completed during remap window: %v", err)
	default:
	}
	// Close the window.
	if err := f.mem.Remap(alias, base, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	p.pmu.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("store after window: %v", err)
	}
	if v, _ := f.mem.LoadWord(varAddr + 8); v != 77 {
		t.Errorf("blocked store lost: %d", v)
	}
	// One fault waited out the window, the second (the page is read-only
	// again) landed the store as false sharing.
	if b.st.PageFaults != 2 || b.st.FalseSharing != 1 {
		t.Errorf("faults=%d falseSharing=%d, want 2/1", b.st.PageFaults, b.st.FalseSharing)
	}
	// a's SC still works (its monitor was not on varAddr+8... it was on
	// varAddr — but b's store was false sharing, monitor intact).
	st, err := s.SC(a, varAddr, 11)
	if err != nil || st != 0 {
		t.Fatalf("SC = %d, %v", st, err)
	}
	if perm := f.mem.PermAt(base); perm != mmu.PermRW {
		t.Errorf("page perm after last SC = %v, want rw-", perm)
	}
}

func TestPicoHTMDoomedWindowFailsSC(t *testing.T) {
	f := newFixture(t)
	s := f.scheme(t, "pico-htm")
	a := f.ctx(1)
	f.mem.StoreWord(varAddr, 3)
	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	// Emulation work inside the window aborts the transaction.
	a.mon.Txn.AbortNow(htm.ReasonEmulation)
	// Loads still work (direct, doomed mode).
	v, err := s.Load(a, varAddr)
	if err != nil || v != 3 {
		t.Fatalf("doomed load = %d, %v", v, err)
	}
	st, err := s.SC(a, varAddr, 4)
	if err != nil || st != 1 {
		t.Fatalf("doomed SC = %d, %v (must fail)", st, err)
	}
	if v, _ := f.mem.LoadWord(varAddr); v != 3 {
		t.Errorf("doomed SC wrote memory: %d", v)
	}
}

// TestPicoHTMRMWInsideWindowIsTransactional: an RMW inside the vCPU's own
// open window is buffered in its transaction, invisible until the SC
// commits it together with the window's other writes.
func TestPicoHTMRMWInsideWindowIsTransactional(t *testing.T) {
	f := newFixture(t)
	s := f.scheme(t, "pico-htm")
	a := f.ctx(1)
	f.mem.StoreWord(varAddr, 3)
	f.mem.StoreWord(varAddr+8, 0x11223344)
	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	old, err := s.RMW(a, varAddr+9, mmu.Update{Kind: mmu.UpdateByte, Operand: 0xab})
	if err != nil || old != 0x11223344 {
		t.Fatalf("RMW in window = %#x, %v", old, err)
	}
	if v, _ := f.mem.LoadWord(varAddr + 8); v != 0x11223344 {
		t.Fatalf("RMW in window reached memory before the SC: %#x", v)
	}
	if st, err := s.SC(a, varAddr, 4); err != nil || st != 0 {
		t.Fatalf("SC = %d, %v", st, err)
	}
	if v, _ := f.mem.LoadWord(varAddr + 8); v != 0x1122ab44 {
		t.Errorf("word after commit = %#x, want 0x1122ab44", v)
	}
}

func TestPicoHTMLivelockDetection(t *testing.T) {
	f := newFixture(t)
	res := &Resilience{StrictPaper: true}
	s := NewPicoHTM(f.scheme(t, "pico-cas").(*picoCAS).cost, f.tm, res).(*picoHTM)
	s.livelockLimit = 3
	a := f.ctx(1)
	// Force repeated aborts: hold a conflicting lock from another txn.
	blocker := f.tm.Begin(99, func(addr uint32) (uint32, error) { return 0, nil })
	if err := blocker.Write(varAddr, 9); err != nil {
		t.Fatal(err)
	}
	_, err := s.LL(a, varAddr)
	var ee *EmulationError
	if !errors.As(err, &ee) {
		t.Fatalf("expected livelock EmulationError, got %v", err)
	}
	blocker.AbortNow(htm.ReasonSyscall)
}

func TestHSTCollisionFailsSCButNeverLies(t *testing.T) {
	f := newFixture(t)
	tab, err := NewHashTable(4) // tiny: collisions guaranteed
	if err != nil {
		t.Fatal(err)
	}
	cm := DefaultCostModel()
	s := NewHST(&cm, tab)
	a, b := f.ctx(1), f.ctx(2)
	f.mem.StoreWord(varAddr, 1)
	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	// b stores to an address that collides with varAddr in a 16-entry table.
	collide := uint32(varAddr + 16*4)
	if !tab.Collides(varAddr, collide) {
		t.Fatal("test setup: addresses should collide")
	}
	if err := s.Store(b, collide, 9); err != nil {
		t.Fatal(err)
	}
	// Spurious failure — safe direction.
	st, err := s.SC(a, varAddr, 2)
	if err != nil || st != 1 {
		t.Fatalf("SC with colliding store = %d, %v (must fail spuriously)", st, err)
	}
	if v, _ := f.mem.LoadWord(varAddr); v != 1 {
		t.Errorf("failed SC wrote memory: %d", v)
	}
}

func TestHSTProfiledCountsCollisions(t *testing.T) {
	f := newFixture(t)
	tab, err := NewHashTable(4)
	if err != nil {
		t.Fatal(err)
	}
	cm := DefaultCostModel()
	s := NewHSTProfiled(&cm, tab)
	a := f.ctx(1)
	if err := s.Store(a, varAddr, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Store(a, varAddr+16*4, 2); err != nil { // collides
		t.Fatal(err)
	}
	if a.st.HashConflicts != 1 {
		t.Errorf("HashConflicts = %d, want 1", a.st.HashConflicts)
	}
}

func TestPicoSTConcurrentStoresBreakMonitors(t *testing.T) {
	f := newFixture(t)
	s := f.scheme(t, "pico-st")
	a, b := f.ctx(1), f.ctx(2)
	f.mem.StoreWord(varAddr, 5)
	if _, err := s.LL(a, varAddr); err != nil {
		t.Fatal(err)
	}
	if err := s.Store(b, varAddr, 5); err != nil { // same value!
		t.Fatal(err)
	}
	st, err := s.SC(a, varAddr, 6)
	if err != nil || st != 1 {
		t.Fatalf("pico-st missed a same-value store: SC = %d, %v", st, err)
	}
}

func TestAtomicityString(t *testing.T) {
	if AtomicityStrong.String() != "strong" || AtomicityWeak.String() != "weak" ||
		AtomicityIncorrect.String() != "incorrect" {
		t.Error("atomicity strings wrong")
	}
}

func TestEmulationErrorFormat(t *testing.T) {
	e := &EmulationError{Scheme: "pico-htm", Reason: "livelock"}
	if e.Error() == "" {
		t.Error("empty error string")
	}
}

func TestDefaultCostModelSane(t *testing.T) {
	cm := DefaultCostModel()
	if cm.HelperCall <= cm.HashInline {
		t.Error("helper calls must cost more than inline hash ops — the HST vs PICO-ST premise")
	}
	if cm.MProtect <= cm.HostAtomic {
		t.Error("mprotect must dominate atomic ops — the PST premise")
	}
	if cm.PageFault <= cm.MProtect/2 {
		t.Error("page faults should be expensive")
	}
}
