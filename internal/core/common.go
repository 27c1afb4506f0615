package core

import (
	"sync/atomic"

	"atomemu/internal/hashtab"
	"atomemu/internal/mmu"
)

// HashTable is the HST store-test table type (re-exported so engine and
// harness configuration only import core).
type HashTable = hashtab.Table

// NewHashTable creates a store-test table with 2^bits entries.
func NewHashTable(bits uint) (*HashTable, error) { return hashtab.New(bits) }

type brokenFlag = atomic.Bool

// noInstrumentation provides the default hooks for schemes that do not
// instrument regular loads/stores: the engine never calls the load and
// store hooks (it uses its uninstrumented fast path), but the methods exist
// so such schemes satisfy Scheme, and they behave sensibly if invoked
// directly. RMW is a plain host atomic: with no store test there is nothing
// else to do (pico-cas).
type noInstrumentation struct{ plainLoads }

func (noInstrumentation) InstrumentsStores() bool { return false }

func (noInstrumentation) Store(ctx Context, addr, val uint32) error {
	if f := ctx.Mem().StoreWord(addr, val); f != nil {
		return f
	}
	return nil
}

func (noInstrumentation) RMW(ctx Context, addr uint32, u mmu.Update) (uint32, error) {
	old, f := ctx.Mem().Update(addr, u)
	if f != nil {
		return 0, f
	}
	return old, nil
}

// plainLoads provides uninstrumented load hooks for schemes that only
// instrument stores.
type plainLoads struct{}

func (plainLoads) InstrumentsLoads() bool { return false }

func (plainLoads) Load(ctx Context, addr uint32) (uint32, error) {
	v, f := ctx.Mem().LoadWord(addr)
	if f != nil {
		return 0, f
	}
	return v, nil
}

func (plainLoads) LoadB(ctx Context, addr uint32) (uint8, error) {
	v, f := ctx.Mem().LoadByte(addr)
	if f != nil {
		return 0, f
	}
	return v, nil
}
