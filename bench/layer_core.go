package main

import (
	"fmt"
	"sync"
	"time"

	"atomemu/internal/core"
	"atomemu/internal/engine"
	"atomemu/internal/guestlib"
	"atomemu/internal/htm"
	"atomemu/internal/mmu"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

func init() {
	var m []layerMetric
	for _, s := range core.SchemeNames() {
		m = append(m,
			layerMetric{Name: "core." + s + ".ll_ns", Unit: "ns", Moves: "sc_per_s@atomic_2t"},
			layerMetric{Name: "core." + s + ".sc_ns", Unit: "ns", Moves: "sc_per_s@atomic_2t"},
			layerMetric{Name: "core." + s + ".store_ns", Unit: "ns", Moves: "guest_mips@compute_1t"},
			layerMetric{Name: "core." + s + ".stack_sc_per_s", Unit: "1/s", Higher: true, Moves: "sc_per_s@atomic_2t"},
			layerMetric{Name: "core." + s + ".sc_fail_share", Unit: "share", Moves: "sc_per_s@atomic_2t (wasted work)"},
			layerMetric{Name: "core." + s + ".stack_bad_runs", Unit: "count", Moves: "fail_share@atomic_2t"},
		)
	}
	registerLayer(layerDriver{Pkg: "core", Home: "atomic_2t", Share: 0.33, Metrics: m, Run: runCoreLayer})
}

// layerStackPairs is the length of one atomic_2t-shaped run in the per-scheme
// sweep: a fiftieth of the workload's, so even the slow schemes finish several
// within a two-second share.
const layerStackPairs = stackPairs / 50

func buildStack() (*guestlib.StackBench, error) {
	return guestlib.BuildStackBench(imageOrg, stackNodes)
}

// schemeCtx is a bench-owned core.Context for one uncontended vCPU: real
// memory and monitor, a mutex for the stop-the-world section, counters that
// nobody reads.
type schemeCtx struct {
	mem  *mmu.Memory
	mon  core.Monitor
	st   stats.CPU
	excl sync.Mutex
	tm   *htm.TM
}

func (c *schemeCtx) TID() uint32                             { return 1 }
func (c *schemeCtx) Mem() *mmu.Memory                        { return c.mem }
func (c *schemeCtx) Monitor() *core.Monitor                  { return &c.mon }
func (c *schemeCtx) StartExclusive()                         { c.excl.Lock() }
func (c *schemeCtx) EndExclusive()                           { c.excl.Unlock() }
func (c *schemeCtx) ChargeExclusive()                        { c.st.ExclSections++ }
func (c *schemeCtx) Stats() *stats.CPU                       { return &c.st }
func (c *schemeCtx) Charge(comp stats.Component, cyc uint64) { c.st.Charge(comp, cyc) }
func (c *schemeCtx) TM() *htm.TM                             { return c.tm }
func (c *schemeCtx) RunningCPUs() int                        { return 1 }
func (c *schemeCtx) Tracer() *obs.Ring                       { return nil }

// schemeMicro times one scheme's LL, SC and instrumented store on a single
// uncontended context. LL and SC only make sense as a pair, so three loops
// are timed — LL+SC, LL+Clrex and Clrex alone — and the parts subtracted.
func schemeMicro(name string, budget time.Duration) (ll, sc, store float64, err error) {
	const (
		base    = 0x10000
		varAddr = base + 0x40
		bufAddr = base + mmu.PageSize + 0x40 // a different page: PST protects the variable's
	)
	mem := mmu.New(16 << 20)
	if err := mem.Map(base, 4*mmu.PageSize, mmu.PermRW); err != nil {
		return 0, 0, 0, err
	}
	tm, err := htm.New(htmBits, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	tab, err := core.NewHashTable(hashBits)
	if err != nil {
		return 0, 0, 0, err
	}
	s, err := core.New(name, core.Deps{Htab: tab, TM: tm})
	if err != nil {
		return 0, 0, 0, err
	}
	ctx := &schemeCtx{mem: mem, tm: tm}
	var failed error
	var scFails int
	const batch = 256
	pair := nsPerOp(budget/4, batch, func() {
		v, err := s.LL(ctx, varAddr)
		if err != nil {
			failed = err
			return
		}
		status, err := s.SC(ctx, varAddr, v+1)
		if err != nil {
			failed = err
		}
		scFails += int(status)
	})
	llClrex := nsPerOp(budget/4, batch, func() {
		if _, err := s.LL(ctx, varAddr); err != nil {
			failed = err
		}
		s.Clrex(ctx)
	})
	clrex := nsPerOp(budget/4, batch, func() { s.Clrex(ctx) })
	var i uint32
	store = nsPerOp(budget/4, batch, func() {
		i++
		if err := s.Store(ctx, bufAddr+i%64*4, i); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return 0, 0, 0, failed
	}
	if scFails > 0 {
		return 0, 0, 0, fmt.Errorf("%d uncontended SCs failed", scFails)
	}
	ll = llClrex - clrex
	return ll, pair - ll, store, nil
}

// schemeStack repeats short atomic_2t-shaped runs under one scheme for about
// budget. A run that crashes or leaves the stack corrupt is counted in bad
// and otherwise ignored: this sweep reports what each scheme does, it does
// not require every scheme to be correct.
func schemeStack(sb *guestlib.StackBench, name string, budget time.Duration) (scPerS, failShare float64, bad int) {
	var scOK, scs, fails uint64
	var wall time.Duration
	for more := rounds(budget, 1, anyNumber); more(); {
		s := runMachine(nil, 0, 0, stackJob(sb, engine.DefaultConfig(name), 2, layerStackPairs))
		if !s.ok {
			bad++
			continue
		}
		scOK += s.scOK
		scs += s.stats.SCs
		fails += s.stats.SCFails
		wall += s.wall
	}
	if wall > 0 {
		scPerS = float64(scOK) / wall.Seconds()
	}
	if scs > 0 {
		failShare = float64(fails) / float64(scs)
	}
	return scPerS, failShare, bad
}

func runCoreLayer(env *layerEnv) (map[string]float64, error) {
	sb, err := buildStack()
	if err != nil {
		return nil, err
	}
	names := core.SchemeNames()
	per := env.budget / time.Duration(len(names))
	out := map[string]float64{}
	for _, name := range names {
		ll, sc, store, err := schemeMicro(name, per/4)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out["core."+name+".ll_ns"] = ll
		out["core."+name+".sc_ns"] = sc
		out["core."+name+".store_ns"] = store
		rate, failShare, bad := schemeStack(sb, name, per*3/4)
		out["core."+name+".stack_sc_per_s"] = rate
		out["core."+name+".sc_fail_share"] = failShare
		out["core."+name+".stack_bad_runs"] = float64(bad)
	}
	return out, nil
}
