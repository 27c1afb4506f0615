package mmu

import (
	"sync"
	"testing"
	"testing/quick"
)

func newMem(t *testing.T) *Memory {
	t.Helper()
	return New(16 << 20)
}

func TestMapLoadStore(t *testing.T) {
	m := newMem(t)
	if err := m.Map(0x10000, 2*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if f := m.StoreWord(0x10004, 0xdeadbeef); f != nil {
		t.Fatal(f)
	}
	v, f := m.LoadWord(0x10004)
	if f != nil || v != 0xdeadbeef {
		t.Fatalf("LoadWord = %#x, %v", v, f)
	}
	// Fresh pages read as zero.
	v, f = m.LoadWord(0x10000 + PageSize)
	if f != nil || v != 0 {
		t.Fatalf("fresh page load = %#x, %v", v, f)
	}
}

// TestWriteWordsPrivMatchesWordWrites: the bulk write leaves the same
// words, dirty state and store-watch counts as one WriteWordPriv per word,
// across page boundaries and from a misaligned start within a page, and
// faults at the first unmapped page with the pages before it written.
func TestWriteWordsPrivMatchesWordWrites(t *testing.T) {
	const base = 0x10000
	words := make([]uint32, 2*PageWords+37)
	for i := range words {
		words[i] = uint32(i)*2654435761 + 1
	}
	start := uint32(base + 3*4)
	bulk, single := newMem(t), newMem(t)
	var watches [2]*StoreWatch
	var clean [2]*Snapshot
	for i, m := range []*Memory{bulk, single} {
		if err := m.Map(base, 4*PageSize, PermRead); err != nil {
			t.Fatal(err)
		}
		watches[i] = m.WatchStores(base+PageSize, base+2*PageSize)
		clean[i] = m.SnapshotPages(nil)
	}
	if f := bulk.WriteWordsPriv(start, words); f != nil {
		t.Fatal(f)
	}
	for i, w := range words {
		if f := single.WriteWordPriv(start+uint32(i)*4, w); f != nil {
			t.Fatal(f)
		}
	}
	for a := uint32(base); a < base+4*PageSize; a += 4 {
		got, _ := bulk.ReadWordPriv(a)
		want, _ := single.ReadWordPriv(a)
		if got != want {
			t.Fatalf("word at %#x = %#x, want %#x", a, got, want)
		}
	}
	if got, want := watches[0].Count(), watches[1].Count(); got != want || got != PageWords {
		t.Fatalf("watch counted %d stores, word-by-word %d, want %d", got, want, PageWords)
	}
	if got, want := bulk.SnapshotPages(clean[0]).Copied, single.SnapshotPages(clean[1]).Copied; got != want || got != 3 {
		t.Fatalf("bulk write dirtied %d pages, word-by-word %d, want 3", got, want)
	}

	m := newMem(t)
	if err := m.Map(base, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	f := m.WriteWordsPriv(base+PageSize-8, []uint32{1, 2, 3})
	if f == nil || f.Kind != FaultUnmapped || f.Addr != base+PageSize {
		t.Fatalf("write into an unmapped page: fault %v, want unmapped at %#x", f, base+PageSize)
	}
	if v, _ := m.ReadWordPriv(base + PageSize - 4); v != 2 {
		t.Fatalf("word before the fault = %d, want 2", v)
	}
}

func TestUnmappedFault(t *testing.T) {
	m := newMem(t)
	_, f := m.LoadWord(0x5000)
	if f == nil || f.Kind != FaultUnmapped || f.Access != AccessLoad {
		t.Fatalf("fault = %v", f)
	}
	if f.Error() == "" {
		t.Error("fault should format")
	}
	if f2 := m.StoreWord(0x5000, 1); f2 == nil || f2.Kind != FaultUnmapped || f2.Access != AccessStore {
		t.Fatalf("store fault = %v", f2)
	}
}

func TestAlignmentFault(t *testing.T) {
	m := newMem(t)
	if err := m.Map(0, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if _, f := m.LoadWord(2); f == nil || f.Kind != FaultAlign {
		t.Fatalf("misaligned load fault = %v", f)
	}
	if f := m.StoreWord(1, 9); f == nil || f.Kind != FaultAlign {
		t.Fatalf("misaligned store fault = %v", f)
	}
}

func TestProtectionFault(t *testing.T) {
	m := newMem(t)
	if err := m.Map(0x4000, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	if f := m.StoreWord(0x4000, 1); f == nil || f.Kind != FaultProtected {
		t.Fatalf("store to read-only = %v", f)
	}
	if _, f := m.LoadWord(0x4000); f != nil {
		t.Fatalf("read of read-only page should work: %v", f)
	}
	if _, f := m.FetchWord(0x4000); f == nil || f.Kind != FaultProtected {
		t.Fatalf("fetch from non-exec = %v", f)
	}
}

func TestProtectFlipsPermissions(t *testing.T) {
	m := newMem(t)
	if err := m.Map(0x4000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if f := m.StoreWord(0x4000, 7); f != nil {
		t.Fatal(f)
	}
	if err := m.Protect(0x4000, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	if f := m.StoreWord(0x4000, 8); f == nil || f.Kind != FaultProtected {
		t.Fatalf("store after mprotect(RO) = %v", f)
	}
	// PST's privileged commit path still works.
	if f := m.WriteWordPriv(0x4000, 8); f != nil {
		t.Fatal(f)
	}
	if err := m.Protect(0x4000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	v, f := m.LoadWord(0x4000)
	if f != nil || v != 8 {
		t.Fatalf("after restore: %#x, %v", v, f)
	}
}

func TestDoubleMapRejected(t *testing.T) {
	m := newMem(t)
	if err := m.Map(0x1000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(0x1000, PageSize, PermRW); err == nil {
		t.Fatal("double map should fail")
	}
	// Partial overlap too.
	if err := m.Map(0, 2*PageSize, PermRW); err == nil {
		t.Fatal("overlapping map should fail")
	}
}

func TestUnmapAndReuse(t *testing.T) {
	m := newMem(t)
	if err := m.Map(0x1000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if f := m.StoreWord(0x1000, 42); f != nil {
		t.Fatal(f)
	}
	if err := m.Unmap(0x1000, PageSize); err != nil {
		t.Fatal(err)
	}
	if _, f := m.LoadWord(0x1000); f == nil || f.Kind != FaultUnmapped {
		t.Fatalf("load after unmap = %v", f)
	}
	// Remapping must hand back a zeroed page even though the frame is
	// recycled.
	if err := m.Map(0x1000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	v, f := m.LoadWord(0x1000)
	if f != nil || v != 0 {
		t.Fatalf("recycled frame not zeroed: %#x, %v", v, f)
	}
	if err := m.Unmap(0x2000, PageSize); err == nil {
		t.Fatal("unmap of unmapped page should fail")
	}
}

func TestAliasSharesFrame(t *testing.T) {
	m := newMem(t)
	if err := m.Map(0x1000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := m.Alias(0x9000, 0x1000, PermRW); err != nil {
		t.Fatal(err)
	}
	if f := m.StoreWord(0x9004, 0x1234); f != nil {
		t.Fatal(f)
	}
	v, f := m.LoadWord(0x1004)
	if f != nil || v != 0x1234 {
		t.Fatalf("alias write not visible at original: %#x, %v", v, f)
	}
	// Unmapping the original must keep the frame alive for the alias.
	if err := m.Unmap(0x1000, PageSize); err != nil {
		t.Fatal(err)
	}
	v, f = m.LoadWord(0x9004)
	if f != nil || v != 0x1234 {
		t.Fatalf("alias lost data after original unmap: %#x, %v", v, f)
	}
}

func TestRemapMovesPage(t *testing.T) {
	m := newMem(t)
	if err := m.Map(0x1000, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	if f := m.WriteWordPriv(0x1008, 99); f != nil {
		t.Fatal(f)
	}
	if err := m.Remap(0x1000, 0xa000, PermRW); err != nil {
		t.Fatal(err)
	}
	// Old address faults MAPERR — this is what blocks other threads in
	// PST-REMAP.
	if _, f := m.LoadWord(0x1008); f == nil || f.Kind != FaultUnmapped {
		t.Fatalf("old address after remap = %v", f)
	}
	// New address sees the data, now writable.
	v, f := m.LoadWord(0xa008)
	if f != nil || v != 99 {
		t.Fatalf("remapped load = %#x, %v", v, f)
	}
	if f := m.StoreWord(0xa008, 100); f != nil {
		t.Fatal(f)
	}
	// Remap back.
	if err := m.Remap(0xa000, 0x1000, PermRead); err != nil {
		t.Fatal(err)
	}
	v, f = m.LoadWord(0x1008)
	if f != nil || v != 100 {
		t.Fatalf("after remap back = %#x, %v", v, f)
	}
}

func TestRemapErrors(t *testing.T) {
	m := newMem(t)
	if err := m.Remap(0x1000, 0x2000, PermRW); err == nil {
		t.Fatal("remap of unmapped should fail")
	}
	if err := m.Map(0x1000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(0x2000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := m.Remap(0x1000, 0x2000, PermRW); err == nil {
		t.Fatal("remap onto mapped destination should fail")
	}
	if err := m.Remap(0x1001, 0x3000, PermRW); err == nil {
		t.Fatal("unaligned remap should fail")
	}
}

func TestCASWord(t *testing.T) {
	m := newMem(t)
	if err := m.Map(0, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if f := m.StoreWord(0x10, 5); f != nil {
		t.Fatal(f)
	}
	ok, f := m.CASWord(0x10, 5, 6)
	if f != nil || !ok {
		t.Fatalf("CAS(5,6) = %v, %v", ok, f)
	}
	ok, f = m.CASWord(0x10, 5, 7)
	if f != nil || ok {
		t.Fatalf("CAS with stale old should fail, got %v, %v", ok, f)
	}
	v, _ := m.LoadWord(0x10)
	if v != 6 {
		t.Fatalf("value = %d, want 6", v)
	}
}

func TestByteAccess(t *testing.T) {
	m := newMem(t)
	if err := m.Map(0, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 4; i++ {
		if f := m.StoreByte(0x20+i, uint8(0x10+i)); f != nil {
			t.Fatal(f)
		}
	}
	w, f := m.LoadWord(0x20)
	if f != nil || w != 0x13121110 {
		t.Fatalf("word after byte stores = %#x (little-endian expected), %v", w, f)
	}
	b, f := m.LoadByte(0x22)
	if f != nil || b != 0x12 {
		t.Fatalf("LoadByte = %#x, %v", b, f)
	}
	// Byte fault carries the byte address, not the word base.
	if _, f := m.LoadByte(0x7fff_0003); f == nil || f.Addr != 0x7fff_0003 {
		t.Fatalf("byte fault addr = %v", f)
	}
}

func TestConcurrentByteStoresNoLostUpdate(t *testing.T) {
	m := newMem(t)
	if err := m.Map(0, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for lane := uint32(0); lane < 4; lane++ {
		wg.Add(1)
		go func(lane uint32) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if f := m.StoreByte(0x40+lane, uint8(lane+1)); f != nil {
					t.Error(f)
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	w, _ := m.LoadWord(0x40)
	if w != 0x04030201 {
		t.Fatalf("concurrent byte lanes = %#x, want 0x04030201", w)
	}
}

// TestUpdateKinds: every kind returns the previous word and leaves
// Apply's result; a byte update replaces only its lane.
func TestUpdateKinds(t *testing.T) {
	m := newMem(t)
	if err := m.Map(0, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		u         Update
		addr      uint32
		old, want uint32
	}{
		{Update{UpdateAdd, 3}, 0x10, 0xf0, 0xf3},
		{Update{UpdateSub, 1}, 0x10, 0, 0xffffffff},
		{Update{UpdateAnd, 0x0f}, 0x10, 0xff, 0x0f},
		{Update{UpdateOr, 0x0f}, 0x10, 0xf0, 0xff},
		{Update{UpdateXor, 0xff}, 0x10, 0x0f, 0xf0},
		{Update{UpdateXchg, 7}, 0x10, 9, 7},
		{Update{UpdateByte, 0x1ab}, 0x12, 0x11223344, 0x11ab3344},
	} {
		if f := m.StoreWord(0x10, c.old); f != nil {
			t.Fatal(f)
		}
		old, f := m.Update(c.addr, c.u)
		got, _ := m.LoadWord(0x10)
		if f != nil || old != c.old || got != c.want {
			t.Errorf("%v at %#x on %#x: old %#x, word %#x, %v; want %#x, %#x", c.u.Kind, c.addr, c.old, old, got, f, c.old, c.want)
		}
	}
}

// TestUpdateFaults: a word update needs alignment, Update needs write
// permission, UpdatePriv does not, and faults carry the access's address.
func TestUpdateFaults(t *testing.T) {
	m := newMem(t)
	if err := m.Map(0, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, f := m.Update(0x11, Update{UpdateAdd, 1}); f == nil || f.Kind != FaultAlign {
		t.Errorf("misaligned word update: %v", f)
	}
	if _, f := m.Update(0x13, Update{UpdateByte, 1}); f == nil || f.Kind != FaultProtected || f.Access != AccessStore || f.Addr != 0x13 {
		t.Errorf("byte update on a read-only page: %v", f)
	}
	if old, f := m.UpdatePriv(0x10, Update{UpdateAdd, 5}); f != nil || old != 0 {
		t.Errorf("UpdatePriv = %d, %v", old, f)
	}
	if v, _ := m.LoadWord(0x10); v != 5 {
		t.Errorf("word after UpdatePriv = %d, want 5", v)
	}
}

func TestPermAt(t *testing.T) {
	m := newMem(t)
	if m.PermAt(0x1000) != 0 {
		t.Error("unmapped PermAt should be 0")
	}
	if err := m.Map(0x1000, PageSize, PermRX); err != nil {
		t.Fatal(err)
	}
	if got := m.PermAt(0x1abc); got != PermRX {
		t.Errorf("PermAt = %v", got)
	}
}

func TestPermString(t *testing.T) {
	if PermRW.String() != "rw-" || PermRWX.String() != "rwx" || Perm(0).String() != "---" {
		t.Errorf("perm strings: %s %s %s", PermRW, PermRWX, Perm(0))
	}
}

func TestOutOfPhysicalMemory(t *testing.T) {
	m := New(2 * PageSize)
	if err := m.Map(0, 2*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(0x10000, PageSize, PermRW); err == nil {
		t.Fatal("expected out-of-memory")
	}
}

// Property: for any set of distinct pages mapped RW, stores round-trip and
// pages are isolated from each other.
func TestQuickPageIsolation(t *testing.T) {
	f := func(pages []uint16, val uint32) bool {
		m := New(64 << 20)
		seen := map[uint32]bool{}
		var addrs []uint32
		for _, p := range pages {
			base := uint32(p) << PageShift
			if seen[base] {
				continue
			}
			seen[base] = true
			if err := m.Map(base, PageSize, PermRW); err != nil {
				return false
			}
			addrs = append(addrs, base)
		}
		for i, a := range addrs {
			if f := m.StoreWord(a, val+uint32(i)); f != nil {
				return false
			}
		}
		for i, a := range addrs {
			v, f := m.LoadWord(a)
			if f != nil || v != val+uint32(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentWordStoresAtomic(t *testing.T) {
	// Concurrent CAS increments must not lose updates: the host-atomicity
	// guarantee the PICO-CAS translation relies on.
	m := newMem(t)
	if err := m.Map(0, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				for {
					old, _ := m.LoadWord(0)
					ok, _ := m.CASWord(0, old, old+1)
					if ok {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	v, _ := m.LoadWord(0)
	if v != goroutines*perG {
		t.Fatalf("lost updates: %d, want %d", v, goroutines*perG)
	}
}

func TestPageBase(t *testing.T) {
	if PageBase(0x12345) != 0x12000 {
		t.Errorf("PageBase = %#x", PageBase(0x12345))
	}
}
