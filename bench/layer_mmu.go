package main

import (
	"fmt"
	"time"

	"atomemu/internal/mmu"
)

func init() {
	registerLayer(layerDriver{
		Pkg: "mmu", Home: "compute_1t", Share: 0.03,
		Metrics: []layerMetric{
			{Name: "mmu.load_ns", Unit: "ns", Moves: "guest_mips@compute_1t"},
			{Name: "mmu.store_ns", Unit: "ns", Moves: "guest_mips@compute_1t"},
			{Name: "mmu.cas_ns", Unit: "ns", Moves: "sc_per_s@atomic_2t"},
			{Name: "mmu.fetch_ns", Unit: "ns", Moves: "cold_start_ms@cold_translate"},
			{Name: "mmu.protect_us", Unit: "us", Moves: "sc_per_s@atomic_2t (under the pst schemes)"},
			{Name: "mmu.snapshot_us", Unit: "us", Moves: "engine.checkpoint_capture_us"},
			{Name: "mmu.restore_us", Unit: "us", Moves: "engine.resume_from_snapshot_us"},
		},
		Run: runMMULayer,
	})
}

// mmuPages is the working set of the access loops and the size of the
// snapshotted address space: 256 KiB, a small job's image plus stacks.
const mmuPages = 64

func runMMULayer(env *layerEnv) (map[string]float64, error) {
	const base = 0x10000
	mem := mmu.New(64 << 20)
	if err := mem.Map(base, mmuPages*mmu.PageSize, mmu.PermRWX); err != nil {
		return nil, err
	}
	var fault *mmu.Fault
	note := func(f *mmu.Fault) {
		if f != nil {
			fault = f
		}
	}
	// Walk the working set a word past a page at a time, so successive
	// accesses land on different pages as a guest's do.
	var i uint32
	next := func() uint32 {
		i++
		return base + (i*(mmu.PageSize+4))%(mmuPages*mmu.PageSize)&^3
	}
	slice := env.budget / 8
	out := map[string]float64{}
	out["mmu.load_ns"] = nsPerOp(slice, 4096, func() { _, f := mem.LoadWord(next()); note(f) })
	out["mmu.store_ns"] = nsPerOp(slice, 4096, func() { note(mem.StoreWord(next(), i)) })
	out["mmu.cas_ns"] = nsPerOp(slice, 4096, func() {
		a := next()
		v, f := mem.LoadWord(a)
		note(f)
		_, f = mem.CASWord(a, v, v+1)
		note(f)
	}) - out["mmu.load_ns"]
	out["mmu.fetch_ns"] = nsPerOp(slice, 4096, func() { _, f := mem.FetchWord(next()); note(f) })
	if fault != nil {
		return nil, fmt.Errorf("access inside the mapped region faulted: %w", fault)
	}
	var perr error
	out["mmu.protect_us"] = nsPerOp(slice, 64, func() {
		a := mmu.PageBase(next())
		if err := mem.Protect(a, mmu.PageSize, mmu.PermRX); err != nil {
			perr = err
		}
		if err := mem.Protect(a, mmu.PageSize, mmu.PermRWX); err != nil {
			perr = err
		}
	}) / 2 / float64(time.Microsecond)
	if perr != nil {
		return nil, perr
	}
	// A full snapshot: every page is dirty from the stores above and is
	// dirtied again before each capture.
	var snap *mmu.Snapshot
	dirty := func() {
		for p := uint32(0); p < mmuPages; p++ {
			note(mem.StoreWord(base+p*mmu.PageSize, p))
		}
	}
	var snapUS []float64
	for more := rounds(slice, 5, anyNumber); more(); {
		dirty()
		t := time.Now()
		snap = mem.SnapshotPages(nil)
		snapUS = append(snapUS, us(time.Since(t)))
	}
	if fault != nil {
		return nil, fmt.Errorf("store inside the mapped region faulted: %w", fault)
	}
	out["mmu.snapshot_us"] = median(snapUS)
	restore, err := timeEach(slice, 5, time.Microsecond, func() error {
		if f := mem.Restore(snap); f != nil {
			return f
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["mmu.restore_us"] = median(restore)
	return out, nil
}
