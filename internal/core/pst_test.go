package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"atomemu/internal/mmu"
	"atomemu/internal/stats"
)

// pstScript drives one PST-family scheme through a fixed sequence of fake
// contexts and returns the outcome of every step plus each context's
// accounting: per-component cycles, page faults, false sharing and
// exclusive sections. The sequence touches every charge point of the
// family: LL/SC success and failure, foreign and false-sharing stores,
// fused RMWs, a store to an unmapped page, a second LL on a guarded page,
// a read-only page, pst-remap's SC window, more concurrently monitored
// pages than pst-mpk has keys, and a checkpoint restore.
func pstScript(t *testing.T, name string) (outcomes, costs []string) {
	t.Helper()
	f := newFixture(t)
	const (
		many     = 0x20000 // 17 RW pages, one monitor each
		nMany    = 17
		readOnly = 0x40000
	)
	if err := f.mem.Map(many, nMany*mmu.PageSize, mmu.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := f.mem.Map(readOnly, mmu.PageSize, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	s := f.scheme(t, name)
	a, b, c := f.ctx(1), f.ctx(2), f.ctx(3)
	f.mem.StoreWord(varAddr, 5)

	res := func(v uint32, err error) string {
		var fault *mmu.Fault
		switch {
		case err == nil:
			return fmt.Sprint(v)
		case errors.As(err, &fault):
			return fmt.Sprintf("fault(%v,%v)", fault.Kind, fault.Access)
		}
		return "error"
	}
	log := func(step string, v uint32, err error) {
		outcomes = append(outcomes, step+"="+res(v, err))
	}
	store := func(step string, ctx Context, addr, val uint32) {
		log(step, 0, s.Store(ctx, addr, val))
	}
	ll := func(step string, ctx Context, addr uint32) {
		v, err := s.LL(ctx, addr)
		log(step, v, err)
	}
	sc := func(step string, ctx Context, addr, val uint32) {
		v, err := s.SC(ctx, addr, val)
		log(step, v, err)
	}

	// LL/SC success, then failure after a foreign store to the word.
	ll("a.LL", a, varAddr)
	sc("a.SC", a, varAddr, 6)
	ll("a.LL", a, varAddr)
	store("b.Store(word)", b, varAddr, 7)
	sc("a.SC(broken)", a, varAddr, 8)
	// A false-sharing store leaves the monitor intact; a foreign fused RMW
	// on the word breaks it.
	ll("a.LL", a, varAddr)
	store("b.Store(page)", b, varAddr+64, 9)
	sc("a.SC", a, varAddr, 10)
	ll("a.LL", a, varAddr)
	old, err := s.RMW(b, varAddr, mmu.Update{Kind: mmu.UpdateAdd, Operand: 1})
	log("b.RMW(word)", old, err)
	sc("a.SC(broken)", a, varAddr, 12)
	// Unmapped pages fault.
	store("b.Store(unmapped)", b, 0x4000_0000, 1)
	ll("b.LL(unmapped)", b, 0x4000_0000)
	// A second LL on a guarded page, the owner's own store, an SC to the
	// wrong address, and Clrex.
	ll("a.LL", a, varAddr)
	ll("b.LL(same page)", b, varAddr+4)
	store("a.Store(own word)", a, varAddr, 13)
	sc("b.SC", b, varAddr+4, 14)
	sc("a.SC", a, varAddr, 15)
	ll("a.LL", a, varAddr)
	ll("b.LL(same page)", b, varAddr+4)
	sc("a.SC(wrong addr)", a, varAddr+8, 16)
	s.Clrex(b)
	sc("b.SC(after clrex)", b, varAddr+4, 17)
	sc("c.SC(no monitor)", c, varAddr, 18)
	// A read-only page: LL loads, SC and stores fault.
	ll("a.LL(read-only)", a, readOnly)
	store("b.Store(read-only)", b, readOnly, 1)
	sc("a.SC(read-only)", a, readOnly, 2)
	// Loads through the scheme.
	v, err := s.Load(b, varAddr)
	log("b.Load", v, err)
	bv, err := s.LoadB(b, varAddr)
	log("b.LoadB", uint32(bv), err)

	// pst-remap's SC window: a store and a load to the page fault, wait
	// on the page lock until the window closes, then land.
	if name == "pst-remap" {
		ll("a.LL", a, varAddr)
		base := mmu.PageBase(varAddr)
		p := s.(interface{ lookup(uint32) *pstPage }).lookup(base)
		p.pmu.Lock()
		alias := AliasRegionBase + a.TID()*mmu.PageSize
		if err := f.mem.Remap(base, alias, mmu.PermRW); err != nil {
			t.Fatal(err)
		}
		wb, wc := &chargeSignal{fakeCtx: b, charged: make(chan struct{}, 1)},
			&chargeSignal{fakeCtx: c, charged: make(chan struct{}, 1)}
		stored := make(chan error, 1)
		go func() { stored <- s.Store(wb, varAddr+8, 77) }()
		loaded := make(chan string, 1)
		go func() { loaded <- res(s.Load(wc, varAddr)) }()
		// Each charges its fault before it waits on the page lock.
		<-wb.charged
		<-wc.charged
		select {
		case <-stored:
			t.Fatal("store completed during the remap window")
		case <-loaded:
			t.Fatal("load completed during the remap window")
		default:
		}
		if err := f.mem.Remap(alias, base, mmu.PermRead); err != nil {
			t.Fatal(err)
		}
		p.pmu.Unlock()
		log("b.Store(window)", 0, <-stored)
		outcomes = append(outcomes, "c.Load(window)="+<-loaded)
		sc("a.SC", a, varAddr, 19)
		w, _ := f.mem.LoadWord(varAddr + 8)
		outcomes = append(outcomes, fmt.Sprintf("var+8=%d", w))
	}

	// More concurrently monitored pages than pst-mpk has keys: the last
	// two fall back to mprotect. Stores hit a keyed and a fallback page,
	// a second LL lands on a fallback page, then every SC runs.
	var ctxs []*fakeCtx
	var lls, scs []string
	for i := uint32(0); i < nMany; i++ {
		ctxs = append(ctxs, f.ctx(10+i))
		lls = append(lls, res(s.LL(ctxs[i], many+i*mmu.PageSize)))
	}
	outcomes = append(outcomes, "t10..t26.LL="+strings.Join(lls, ","))
	d := f.ctx(40)
	ll("d.LL(fallback page)", d, many+(nMany-1)*mmu.PageSize+4)
	store("b.Store(keyed page)", b, many+8, 1)
	store("b.Store(fallback page)", b, many+(nMany-1)*mmu.PageSize+8, 1)
	store("b.Store(fallback word)", b, many+(nMany-2)*mmu.PageSize, 1)
	for i := uint32(0); i < nMany; i++ {
		scs = append(scs, res(s.SC(ctxs[i], many+i*mmu.PageSize, i)))
	}
	outcomes = append(outcomes, "t10..t26.SC="+strings.Join(scs, ","))
	sc("d.SC", d, many+(nMany-1)*mmu.PageSize+4, 1)
	outcomes = append(outcomes, fmt.Sprintf("perm(many)=%v perm(last)=%v",
		f.mem.PermAt(many), f.mem.PermAt(many+(nMany-1)*mmu.PageSize)))

	// A checkpoint restore lifts the guard of every armed monitor.
	ll("a.LL", a, varAddr)
	ll("t10.LL", ctxs[0], many)
	snap := s.Snapshot()
	s.Restore(f.mem, snap)
	a.mon.Reset()
	ctxs[0].mon.Reset()
	outcomes = append(outcomes, fmt.Sprintf("perm(var)=%v", f.mem.PermAt(varAddr)))
	store("b.Store(restored page)", b, varAddr, 20)
	ll("a.LL", a, varAddr)
	sc("a.SC", a, varAddr, 21)
	w, _ := f.mem.LoadWord(varAddr)
	outcomes = append(outcomes, fmt.Sprintf("final=%d", w))

	for _, ctx := range append([]*fakeCtx{a, b, c, d}, ctxs...) {
		costs = append(costs, fmt.Sprintf("tid=%d cycles=%v pf=%d fs=%d excl=%d",
			ctx.tid, ctx.st.Cycles, ctx.st.PageFaults, ctx.st.FalseSharing, ctx.st.ExclSections))
	}
	return outcomes, costs
}

// chargeSignal is a fake context that reports each charge on a channel, so
// a test can wait until a goroutine has taken a fault.
type chargeSignal struct {
	*fakeCtx
	charged chan struct{}
}

func (c *chargeSignal) Charge(comp stats.Component, cy uint64) {
	c.fakeCtx.Charge(comp, cy)
	select {
	case c.charged <- struct{}{}:
	default:
	}
}

// pstScriptOutcomes is pstScript's outcome log under pst and pst-mpk.
// pst-remap adds its window steps after the scheme loads
// (pstRemapWindowOutcomes), and its window SC leaves 19 for the restore
// step's first LL to load.
var pstScriptOutcomes = []string{
	"a.LL=5",
	"a.SC=0",
	"a.LL=6",
	"b.Store(word)=0",
	"a.SC(broken)=1",
	"a.LL=7",
	"b.Store(page)=0",
	"a.SC=0",
	"a.LL=10",
	"b.RMW(word)=10",
	"a.SC(broken)=1",
	"b.Store(unmapped)=fault(unmapped,store)",
	"b.LL(unmapped)=fault(unmapped,load)",
	"a.LL=11",
	"b.LL(same page)=0",
	"a.Store(own word)=0",
	"b.SC=0",
	"a.SC=0",
	"a.LL=15",
	"b.LL(same page)=14",
	"a.SC(wrong addr)=1",
	"b.SC(after clrex)=1",
	"c.SC(no monitor)=1",
	"a.LL(read-only)=0",
	"b.Store(read-only)=fault(protection,store)",
	"a.SC(read-only)=fault(protection,store)",
	"b.Load=15",
	"b.LoadB=15",
	"t10..t26.LL=0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0",
	"d.LL(fallback page)=0",
	"b.Store(keyed page)=0",
	"b.Store(fallback page)=0",
	"b.Store(fallback word)=0",
	"t10..t26.SC=0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0",
	"d.SC=0",
	"perm(many)=rw- perm(last)=rw-",
	"a.LL=15",
	"t10.LL=0",
	"perm(var)=rw-",
	"b.Store(restored page)=0",
	"a.LL=20",
	"a.SC=0",
	"final=21",
}

var pstRemapWindowOutcomes = []string{
	"a.LL=15",
	"b.Store(window)=0",
	"c.Load(window)=15",
	"a.SC=0",
	"var+8=77",
}

// pstScriptCosts is each context's accounting at the end of pstScript, in
// the order a, b, c, d, t10..t26.
var pstScriptCosts = map[string][]string{
	"pst": {
		"tid=1 cycles=[0 0 0 136000 0 0 0 0] pf=1 fs=0 excl=17",
		"tid=2 cycles=[0 0 0 76000 0 0 0 0] pf=7 fs=3 excl=3",
		"tid=3 cycles=[0 0 0 0 0 0 0 0] pf=0 fs=0 excl=0",
		"tid=40 cycles=[0 0 0 16000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=10 cycles=[0 0 0 20000 0 0 0 0] pf=0 fs=0 excl=3",
		"tid=11 cycles=[0 0 0 16000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=12 cycles=[0 0 0 16000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=13 cycles=[0 0 0 16000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=14 cycles=[0 0 0 16000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=15 cycles=[0 0 0 16000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=16 cycles=[0 0 0 16000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=17 cycles=[0 0 0 16000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=18 cycles=[0 0 0 16000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=19 cycles=[0 0 0 16000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=20 cycles=[0 0 0 16000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=21 cycles=[0 0 0 16000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=22 cycles=[0 0 0 16000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=23 cycles=[0 0 0 16000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=24 cycles=[0 0 0 16000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=25 cycles=[0 0 0 16000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=26 cycles=[0 0 0 12000 0 0 0 0] pf=0 fs=0 excl=2",
	},
	"pst-remap": {
		"tid=1 cycles=[0 0 0 85000 0 0 0 0] pf=1 fs=0 excl=10",
		"tid=2 cycles=[0 0 0 89000 0 0 0 0] pf=9 fs=4 excl=2",
		"tid=3 cycles=[0 0 0 8000 0 0 0 0] pf=1 fs=0 excl=0",
		"tid=40 cycles=[0 0 0 9000 0 0 0 0] pf=0 fs=0 excl=1",
		"tid=10 cycles=[0 0 0 13000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=11 cycles=[0 0 0 9000 0 0 0 0] pf=0 fs=0 excl=1",
		"tid=12 cycles=[0 0 0 9000 0 0 0 0] pf=0 fs=0 excl=1",
		"tid=13 cycles=[0 0 0 9000 0 0 0 0] pf=0 fs=0 excl=1",
		"tid=14 cycles=[0 0 0 9000 0 0 0 0] pf=0 fs=0 excl=1",
		"tid=15 cycles=[0 0 0 9000 0 0 0 0] pf=0 fs=0 excl=1",
		"tid=16 cycles=[0 0 0 9000 0 0 0 0] pf=0 fs=0 excl=1",
		"tid=17 cycles=[0 0 0 9000 0 0 0 0] pf=0 fs=0 excl=1",
		"tid=18 cycles=[0 0 0 9000 0 0 0 0] pf=0 fs=0 excl=1",
		"tid=19 cycles=[0 0 0 9000 0 0 0 0] pf=0 fs=0 excl=1",
		"tid=20 cycles=[0 0 0 9000 0 0 0 0] pf=0 fs=0 excl=1",
		"tid=21 cycles=[0 0 0 9000 0 0 0 0] pf=0 fs=0 excl=1",
		"tid=22 cycles=[0 0 0 9000 0 0 0 0] pf=0 fs=0 excl=1",
		"tid=23 cycles=[0 0 0 9000 0 0 0 0] pf=0 fs=0 excl=1",
		"tid=24 cycles=[0 0 0 9000 0 0 0 0] pf=0 fs=0 excl=1",
		"tid=25 cycles=[0 0 0 8000 0 0 0 0] pf=0 fs=0 excl=1",
		"tid=26 cycles=[0 0 0 9000 0 0 0 0] pf=0 fs=0 excl=1",
	},
	"pst-mpk": {
		"tid=1 cycles=[0 0 0 9920 0 0 0 0] pf=1 fs=0 excl=0",
		"tid=2 cycles=[0 0 0 56180 0 0 0 0] pf=7 fs=3 excl=0",
		"tid=3 cycles=[0 0 0 0 0 0 0 0] pf=0 fs=0 excl=0",
		"tid=40 cycles=[0 0 0 12000 0 0 0 0] pf=0 fs=0 excl=1",
		"tid=10 cycles=[0 0 0 300 0 0 0 0] pf=0 fs=0 excl=0",
		"tid=11 cycles=[0 0 0 240 0 0 0 0] pf=0 fs=0 excl=0",
		"tid=12 cycles=[0 0 0 240 0 0 0 0] pf=0 fs=0 excl=0",
		"tid=13 cycles=[0 0 0 240 0 0 0 0] pf=0 fs=0 excl=0",
		"tid=14 cycles=[0 0 0 240 0 0 0 0] pf=0 fs=0 excl=0",
		"tid=15 cycles=[0 0 0 240 0 0 0 0] pf=0 fs=0 excl=0",
		"tid=16 cycles=[0 0 0 240 0 0 0 0] pf=0 fs=0 excl=0",
		"tid=17 cycles=[0 0 0 240 0 0 0 0] pf=0 fs=0 excl=0",
		"tid=18 cycles=[0 0 0 240 0 0 0 0] pf=0 fs=0 excl=0",
		"tid=19 cycles=[0 0 0 240 0 0 0 0] pf=0 fs=0 excl=0",
		"tid=20 cycles=[0 0 0 240 0 0 0 0] pf=0 fs=0 excl=0",
		"tid=21 cycles=[0 0 0 240 0 0 0 0] pf=0 fs=0 excl=0",
		"tid=22 cycles=[0 0 0 240 0 0 0 0] pf=0 fs=0 excl=0",
		"tid=23 cycles=[0 0 0 240 0 0 0 0] pf=0 fs=0 excl=0",
		"tid=24 cycles=[0 0 0 240 0 0 0 0] pf=0 fs=0 excl=0",
		"tid=25 cycles=[0 0 0 16000 0 0 0 0] pf=0 fs=0 excl=2",
		"tid=26 cycles=[0 0 0 12000 0 0 0 0] pf=0 fs=0 excl=2",
	},
}

// TestPSTFamilyCostParity pins every outcome and every charge of the three
// PST variants on one scripted sequence, so a change to how the family is
// put together cannot move a cycle, a fault count or an SC result.
func TestPSTFamilyCostParity(t *testing.T) {
	for _, name := range []string{"pst", "pst-remap", "pst-mpk"} {
		t.Run(name, func(t *testing.T) {
			want := pstScriptOutcomes
			if name == "pst-remap" {
				i := slices.Index(want, "b.LoadB=15") + 1
				want = slices.Concat(want[:i], pstRemapWindowOutcomes, want[i:])
				want[slices.Index(want, "t10.LL=0")-1] = "a.LL=19"
			}
			outcomes, costs := pstScript(t, name)
			if d := lineDiff(outcomes, want); d != "" {
				t.Errorf("outcomes (-got +want):\n%s", d)
			}
			if d := lineDiff(costs, pstScriptCosts[name]); d != "" {
				t.Errorf("costs (-got +want):\n%s", d)
			}
		})
	}
}

// lineDiff lists the positions where got and want differ, or "" when equal.
func lineDiff(got, want []string) string {
	var b strings.Builder
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			fmt.Fprintf(&b, "%d: -%s\n%d: +%s\n", i, g, i, w)
		}
	}
	return b.String()
}
