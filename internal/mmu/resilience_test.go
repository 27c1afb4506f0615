package mmu

import (
	"testing"

	"atomemu/internal/faultinject"
)

func TestFaultInjectedMemoryAccess(t *testing.T) {
	m := New(1 << 20)
	if err := m.Map(0x1000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if f := m.StoreWord(0x1000, 42); f != nil {
		t.Fatal(f)
	}
	m.SetInjector(faultinject.New(
		faultinject.Rule{Op: faultinject.OpMemLoad, Action: faultinject.ActFault, Addr: 0x1000, Count: 1},
		faultinject.Rule{Op: faultinject.OpMemStore, Action: faultinject.ActFault, Addr: 0x1004, Count: 1},
	))
	// Injected load fault at the targeted address only.
	if _, f := m.LoadWord(0x1000); f == nil || f.Kind != FaultProtected || f.Access != AccessLoad {
		t.Fatalf("injected load fault = %v", f)
	}
	if _, f := m.LoadWord(0x1004); f != nil {
		t.Fatalf("untargeted load should pass: %v", f)
	}
	// Injected store fault leaves memory untouched.
	if f := m.StoreWord(0x1004, 7); f == nil || f.Access != AccessStore {
		t.Fatalf("injected store fault = %v", f)
	}
	if v, f := m.LoadWord(0x1004); f != nil || v != 0 {
		t.Fatalf("faulted store leaked: v=%d f=%v", v, f)
	}
	// Both windows are spent: accesses succeed again.
	if v, f := m.LoadWord(0x1000); f != nil || v != 42 {
		t.Fatalf("load after spent rule: v=%d f=%v", v, f)
	}
	if f := m.StoreWord(0x1004, 7); f != nil {
		t.Fatalf("store after spent rule: %v", f)
	}
}

// TestFaultInjectedUpdates: mem-store rules count and fault word updates
// like word stores, and never see byte stores.
func TestFaultInjectedUpdates(t *testing.T) {
	m := New(1 << 20)
	if err := m.Map(0x1000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	m.SetInjector(faultinject.New(
		faultinject.Rule{Op: faultinject.OpMemStore, Action: faultinject.ActFault, After: 1, Count: 1},
	))
	for i := 0; i < 3; i++ {
		if f := m.StoreByte(0x1001, 9); f != nil {
			t.Fatalf("byte store %d: %v", i, f)
		}
	}
	if _, f := m.Update(0x1004, Update{UpdateAdd, 1}); f != nil {
		t.Fatalf("first word update should pass the rule's After: %v", f)
	}
	if _, f := m.Update(0x1004, Update{UpdateXchg, 5}); f == nil || f.Access != AccessStore || f.Addr != 0x1004 {
		t.Fatalf("injected word update fault = %v", f)
	}
	if v, _ := m.LoadWord(0x1004); v != 1 {
		t.Fatalf("faulted update leaked: v=%d", v)
	}
	if _, f := m.UpdatePriv(0x1004, Update{UpdateXchg, 5}); f != nil {
		t.Fatalf("UpdatePriv is outside injection: %v", f)
	}
}
