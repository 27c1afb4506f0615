package engine

import (
	"fmt"
	"sync"
	"testing"

	"atomemu/internal/asm"
	"atomemu/internal/obs"
)

// The contention benchmarks measure the two host-side hot paths the paper's
// argument turns on (§III): shared translation-cache lookup and the
// per-exclusive-section accounting charged by every HST/PICO-ST SC. Run
// them at 1/4/16 workers to see how the engine scales with vCPUs.

// benchPCs returns pcs spread like real block starts.
func benchPCs(n int) []uint32 {
	pcs := make([]uint32, n)
	for i := range pcs {
		pcs[i] = 0x10000 + uint32(i)*16
	}
	return pcs
}

func benchSharedTBLookup(b *testing.B, workers int) {
	m, err := NewMachine(DefaultConfig("pico-cas"))
	if err != nil {
		b.Fatal(err)
	}
	pcs := benchPCs(1024)
	for _, pc := range pcs {
		m.tbs.insert(pc, &TB{}, 0)
	}
	lookup := m.tbs.get
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			r := seed*2654435761 + 1
			for i := 0; i < per; i++ {
				r ^= r << 13
				r ^= r >> 17
				r ^= r << 5
				if lookup(pcs[r%uint32(len(pcs))]) == nil {
					panic("missing TB")
				}
			}
		}(uint32(w) + 1)
	}
	wg.Wait()
}

func BenchmarkSharedTBLookup(b *testing.B) {
	for _, w := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("vcpus-%d", w), func(b *testing.B) { benchSharedTBLookup(b, w) })
	}
}

func benchChargeExclusive(b *testing.B, vcpus int) {
	m, err := NewMachine(DefaultConfig("hst"))
	if err != nil {
		b.Fatal(err)
	}
	cpus := make([]*CPU, vcpus)
	for i := range cpus {
		cpus[i] = newCPU(m, uint32(i+1))
	}
	m.cpuMu.Lock()
	m.cpus = append(m.cpus, cpus...)
	m.cpuMu.Unlock()
	m.runningCPUs.Store(int32(vcpus))
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/vcpus + 1
	for w := 0; w < vcpus; w++ {
		wg.Add(1)
		go func(c *CPU) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.chargeExclusiveEntry(c)
			}
		}(cpus[w])
	}
	wg.Wait()
}

func BenchmarkChargeExclusiveEntry(b *testing.B) {
	for _, w := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("vcpus-%d", w), func(b *testing.B) { benchChargeExclusive(b, w) })
	}
}

// benchGuestSC runs the LL/SC atomic-counter guest end to end: b.N total
// SC-success increments split across the vCPUs. This exercises the whole SC
// hot path — exclusive protocol, accounting, TB dispatch.
func benchGuestSC(b *testing.B, scheme string, threads int, traced bool) {
	im, err := asm.Assemble(`
.org 0x10000
.entry worker
worker:
    ldr r4, =counter
loop:
    ldrex r1, [r4]
    addi r1, r1, #1
    strex r2, r1, [r4]
    cmpi r2, #0
    bne loop
    subsi r0, r0, #1
    bne loop
    movi r0, #0
    svc #1
.align 1024
counter: .word 0
`)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(scheme)
	cfg.TraceEvents = traced
	m, err := NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		b.Fatal(err)
	}
	iters := uint32(b.N/threads + 1)
	b.ResetTimer()
	for i := 0; i < threads; i++ {
		if _, err := m.SpawnThread(im.Entry, iters); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkGuestSC(b *testing.B) {
	for _, scheme := range []string{"hst", "pico-st"} {
		for _, threads := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/vcpus-%d", scheme, threads), func(b *testing.B) {
				benchGuestSC(b, scheme, threads, false)
			})
		}
	}
}

// BenchmarkGuestSCTraced is the A/B companion: the same guest with the
// event tracer on, for eyeballing the enabled-path cost against
// BenchmarkGuestSC.
func BenchmarkGuestSCTraced(b *testing.B) {
	for _, threads := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("hst/vcpus-%d", threads), func(b *testing.B) {
			benchGuestSC(b, "hst", threads, true)
		})
	}
}

// guardRing defeats constant folding of the nil check in the guard below:
// the compiler cannot prove a package-level var stays nil.
var guardRing *obs.Ring

// TestTracerDisabledOverheadGuard is the CI perf guard for the tracer's
// disabled path. Rather than an A/B wall-clock comparison of full guest
// runs (noisy under parallel CI), it measures the disabled emit site
// itself — one nil check on a *Ring — and fails if it costs more than
// tracerDisabledMaxNs per call, far below the ~100ns an SC already pays.
// A regression here means Emit stopped being nil-check-cheap (e.g. someone
// hoisted work before the nil test), which is exactly the bug this guards.
func TestTracerDisabledOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("perf guard skipped in -short")
	}
	if raceEnabled {
		t.Skip("perf guard skipped under -race: instrumentation dominates the nil check")
	}
	const tracerDisabledMaxNs = 20.0
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			guardRing.Emit(obs.EvSCOk, uint32(i), 0)
		}
	})
	perOp := float64(res.T.Nanoseconds()) / float64(res.N)
	t.Logf("disabled-tracer emit: %.2f ns/op over %d iterations", perOp, res.N)
	if perOp > tracerDisabledMaxNs {
		t.Fatalf("disabled-tracer emit costs %.2f ns/op, budget %v ns — the nil-check fast path regressed",
			perOp, tracerDisabledMaxNs)
	}
}
