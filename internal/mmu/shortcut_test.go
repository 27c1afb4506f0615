package mmu

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"atomemu/internal/faultinject"
)

// The page-level store shortcut (pteStore) must be invisible: a store that
// takes it sees exactly the page state the full resolve path would see.

const (
	scPage  = 0x40000 // the page whose shortcut is armed
	scOther = 0x80000 // an unmapped page: the Alias/Remap/Map destination
)

// refStore is the store path without the shortcut: what StoreWord and
// StoreByte do when the pte does not carry pteStore.
func refStore(m *Memory, addr, val uint32, byteStore bool) *Fault {
	if byteStore {
		fr, wi, f := m.resolve(addr&^3, PermWrite, AccessStore)
		if f != nil {
			f.Addr = addr
			return f
		}
		shift := 8 * (addr & 3)
		atomic.StoreUint32(&fr[wi], atomic.LoadUint32(&fr[wi])&^(0xff<<shift)|(val&0xff)<<shift)
		return nil
	}
	if m.inj.Check(faultinject.OpMemStore, 0, addr) == faultinject.ActFault {
		return &Fault{Addr: addr, Kind: FaultProtected, Access: AccessStore}
	}
	fr, wi, f := m.resolve(addr, PermWrite, AccessStore)
	if f != nil {
		return f
	}
	atomic.StoreUint32(&fr[wi], val)
	return nil
}

func store(m *Memory, addr, val uint32, byteStore bool) *Fault {
	if byteStore {
		return m.StoreByte(addr, uint8(val))
	}
	return m.StoreWord(addr, val)
}

// armedMem returns a memory whose scPage is read-write with its store
// shortcut armed, and a snapshot taken while scPage was still read-only.
func armedMem(t *testing.T) (*Memory, *Snapshot) {
	t.Helper()
	m := New(1 << 20)
	if err := m.Map(scPage, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	snap := m.SnapshotPages(nil)
	if err := m.Protect(scPage, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	// The first store fills the shortcut, the second runs through it.
	for i := uint32(0); i < 2; i++ {
		if f := m.StoreWord(scPage+4*i, 0x11+i); f != nil {
			t.Fatal(f)
		}
	}
	if m.pte(scPage)&pteStore == 0 {
		t.Fatal("two stores to a dirty read-write page left no store shortcut")
	}
	return m, snap
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestStoreShortcutCoherence runs one structural change after the
// shortcut of scPage is armed, then the next store both through the public
// path and through refStore on an identical twin memory. Fault, watch
// counts, pte (dirty bit included, the shortcut bit excluded) and frame
// contents must agree.
func TestStoreShortcutCoherence(t *testing.T) {
	inj := func() *faultinject.Injector {
		return faultinject.New(faultinject.Rule{Op: faultinject.OpMemStore, Action: faultinject.ActFault, Addr: scPage + 8})
	}
	cases := []struct {
		name   string
		change func(t *testing.T, m *Memory, snap *Snapshot)
		addr   uint32 // the store after the change (word-aligned)
	}{
		{"none", func(*testing.T, *Memory, *Snapshot) {}, scPage + 8},
		{"map", func(t *testing.T, m *Memory, _ *Snapshot) { mustOK(t, m.Map(scOther, PageSize, PermRW)) }, scOther + 8},
		{"unmap", func(t *testing.T, m *Memory, _ *Snapshot) { mustOK(t, m.Unmap(scPage, PageSize)) }, scPage + 8},
		{"unmap+map", func(t *testing.T, m *Memory, _ *Snapshot) {
			mustOK(t, m.Unmap(scPage, PageSize))
			mustOK(t, m.Map(scPage, PageSize, PermRW))
		}, scPage + 4},
		{"protect-read", func(t *testing.T, m *Memory, _ *Snapshot) { mustOK(t, m.Protect(scPage, PageSize, PermRead)) }, scPage + 8},
		{"protect-rw", func(t *testing.T, m *Memory, _ *Snapshot) { mustOK(t, m.Protect(scPage, PageSize, PermRW)) }, scPage + 8},
		{"alias-read", func(t *testing.T, m *Memory, _ *Snapshot) { mustOK(t, m.Alias(scOther, scPage, PermRead)) }, scOther + 8},
		{"alias-rw", func(t *testing.T, m *Memory, _ *Snapshot) { mustOK(t, m.Alias(scOther, scPage, PermRW)) }, scOther + 4},
		{"remap-old", func(t *testing.T, m *Memory, _ *Snapshot) { mustOK(t, m.Remap(scPage, scOther, PermRW)) }, scPage + 8},
		{"remap-new-read", func(t *testing.T, m *Memory, _ *Snapshot) { mustOK(t, m.Remap(scPage, scOther, PermRead)) }, scOther + 8},
		{"restore", func(t *testing.T, m *Memory, snap *Snapshot) {
			if f := m.Restore(snap); f != nil {
				t.Fatal(f)
			}
		}, scPage + 8},
		{"watch", func(_ *testing.T, m *Memory, _ *Snapshot) { m.WatchStores(scPage, scPage+PageSize) }, scPage + 8},
		{"injector", func(_ *testing.T, m *Memory, _ *Snapshot) { m.SetInjector(inj()) }, scPage + 8},
		{"snapshot", func(_ *testing.T, m *Memory, _ *Snapshot) { m.SnapshotPages(nil) }, scPage + 8},
		{"misaligned", func(*testing.T, *Memory, *Snapshot) {}, scPage + 6},
	}
	for _, tc := range cases {
		for _, byteStore := range []bool{false, true} {
			name := tc.name + "/word"
			addr := tc.addr
			if byteStore {
				name, addr = tc.name+"/byte", addr|1
			}
			t.Run(name, func(t *testing.T) {
				got, gotSnap := armedMem(t)
				want, wantSnap := armedMem(t)
				tc.change(t, got, gotSnap)
				tc.change(t, want, wantSnap)
				gf := store(got, addr, 0xabcd, byteStore)
				wf := refStore(want, addr, 0xabcd, byteStore)
				if (gf == nil) != (wf == nil) || gf != nil && *gf != *wf {
					t.Fatalf("store at %#x: fault %v, resolve path gives %v", addr, gf, wf)
				}
				for _, a := range []uint32{scPage, scOther} {
					if g, w := got.pte(a)&^pteStore, want.pte(a)&^pteStore; g != w {
						t.Errorf("pte of %#x = %#x, resolve path leaves %#x", a, g, w)
					}
					gw, _ := got.ReadWordPriv(a + addr&PageMask&^3)
					ww, _ := want.ReadWordPriv(a + addr&PageMask&^3)
					if gw != ww {
						t.Errorf("word at %#x = %#x, resolve path leaves %#x", a+addr&PageMask&^3, gw, ww)
					}
				}
				gw, ww := got.watch.Load(), want.watch.Load()
				if gw.Count() != ww.Count() || gw.RangeCount(scPage, scPage+PageSize) != ww.RangeCount(scPage, scPage+PageSize) {
					t.Errorf("watch counts %d/%d, resolve path counts %d/%d", gw.Count(),
						gw.RangeCount(scPage, scPage+PageSize), ww.Count(), ww.RangeCount(scPage, scPage+PageSize))
				}
			})
		}
	}

	// An incremental snapshot after a store through the shortcut must copy
	// the frame: clearing dirty without withdrawing the shortcut would let
	// the store land without re-dirtying the page.
	for _, byteStore := range []bool{false, true} {
		name := "snapshot-hazard/word"
		if byteStore {
			name = "snapshot-hazard/byte"
		}
		t.Run(name, func(t *testing.T) {
			m, _ := armedMem(t)
			s1 := m.SnapshotPages(nil)
			if f := store(m, scPage+8, 0x77, byteStore); f != nil {
				t.Fatal(f)
			}
			s2 := m.SnapshotPages(s1)
			fr := pteFrame(m.pte(scPage))
			if got := s2.Frames[fr][2] & 0xff; got != 0x77 || s2.Copied != 1 {
				t.Fatalf("incremental snapshot holds %#x with %d frames copied, want 0x77 with 1", got, s2.Copied)
			}
		})
	}

	t.Run("no-allocation", func(t *testing.T) {
		m, _ := armedMem(t)
		pte := &m.dir[scPage>>22].Load().ptes[scPage>>PageShift&0x3ff]
		for _, byteStore := range []bool{false, true} {
			fill := testing.AllocsPerRun(100, func() {
				pte.And(^uint64(pteStore))
				_ = store(m, scPage+8, 1, byteStore)
			})
			if pte.Load()&pteStore == 0 {
				t.Fatal("the fill left no store shortcut")
			}
			hit := testing.AllocsPerRun(100, func() { _ = store(m, scPage+8, 2, byteStore) })
			if fill != 0 || hit != 0 {
				t.Errorf("byte=%t: %v allocations per fill, %v per hit, want 0", byteStore, fill, hit)
			}
		}
	})
}

// TestStoreShortcutConcurrentProtect makes a page read-only while storers
// keep hitting it and refilling its shortcut: every store issued after
// Protect has returned must fault, so no filler may publish a shortcut
// against a pte that changed after it checked it.
func TestStoreShortcutConcurrentProtect(t *testing.T) {
	const rounds, storers, churn, after = 400, 4, 64, 32
	m := New(1 << 20)
	if err := m.Map(scPage, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if err := m.Protect(scPage, PageSize, PermRW); err != nil {
			t.Fatal(err)
		}
		protected := make(chan struct{})
		var wg, started sync.WaitGroup
		for s := uint32(0); s < storers; s++ {
			wg.Add(1)
			started.Add(1)
			go func() {
				defer wg.Done()
				addr, byteStore := scPage+4*s, s&1 == 1
				for n, issued := 0, 0; n < after; issued++ {
					if issued == 1 {
						started.Done()
					}
					signalled := false
					select {
					case <-protected:
						signalled = true
					default:
					}
					f := store(m, addr, uint32(issued), byteStore)
					if !signalled {
						if issued%64 == 63 {
							runtime.Gosched()
						}
						continue
					}
					if f == nil || f.Kind != FaultProtected {
						t.Errorf("round %d: store issued after Protect(read) returned %v, want a protection fault", r, f)
						return
					}
					n++
				}
			}()
		}
		// Rewrite the pte while the storers run, so they keep refilling.
		started.Wait()
		for i := 0; i < churn; i++ {
			if err := m.Protect(scPage, PageSize, PermRW); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Protect(scPage, PageSize, PermRead); err != nil {
			t.Fatal(err)
		}
		close(protected)
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}
