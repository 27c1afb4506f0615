package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atomemu/internal/stats"
)

// TestExclusiveMutualExclusion drives the raw protocol from host-side
// goroutines: sections must never overlap, and parked vCPUs must wait.
func TestExclusiveMutualExclusion(t *testing.T) {
	cfg := DefaultConfig("pico-cas")
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	const sections = 200
	cpus := make([]*CPU, workers)
	for i := range cpus {
		cpus[i] = newCPU(m, uint32(i+1))
	}
	var inSection atomic.Int32
	var violations atomic.Int32
	var wg sync.WaitGroup
	for _, c := range cpus {
		wg.Add(1)
		go func(c *CPU) {
			defer wg.Done()
			e := m.excl
			e.execStart(c)
			for s := 0; s < sections; s++ {
				e.checkpoint(c)
				e.startExclusive(c)
				if inSection.Add(1) != 1 {
					violations.Add(1)
				}
				inSection.Add(-1)
				e.endExclusive(c)
			}
			e.execEnd(c)
		}(c)
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d overlapping exclusive sections", violations.Load())
	}
}

// TestExclusiveProtocolStress is the lost-wakeup and stopped-means-stopped
// hunt for the mutex-free region protocol, at 1, 2 and 4 host threads.
// vCPU-shaped goroutines do plain (unsynchronised) work inside their region
// and bump one plain counter inside charged and quiet exclusive sections,
// leaving the region around a "blocking syscall" now and then; host pollers
// stop the world and read all of it. The plain accesses are ordered only by
// the protocol, so -race reports any vCPU that ran while the world was
// stopped; a missed wake-up shows as the timeout; the count must be exact.
func TestExclusiveProtocolStress(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			m, err := NewMachine(DefaultConfig("pico-cas"))
			if err != nil {
				t.Fatal(err)
			}
			const workers, sections, pollers = 4, 1000, 2
			e := m.excl
			var counter int            // plain: written only inside a section
			var work [workers]int      // plain: work[i] written by vCPU i inside its region
			var hostReads [pollers]int // plain: poller-private
			var wg, pollWG sync.WaitGroup
			var stop atomic.Bool
			// inSection is what a section holder does with the world stopped.
			inSection := func(i int) {
				counter++
				if w := work[(i+1)%workers]; w < 0 || w > 3*sections {
					t.Errorf("vCPU %d read work = %d from its stopped neighbour", i, w)
				}
			}
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int, c *CPU) {
					defer wg.Done()
					e.execStart(c)
					for s := 0; s < sections; s++ {
						// Blocks between sections, with the run loop's host
						// yield inside the region: a requester finds this
						// vCPU running and must be woken by its checkpoint.
						for b := 0; b < 3; b++ {
							work[i]++
							e.checkpoint(c)
							runtime.Gosched()
						}
						switch s % 8 {
						case 3: // checkpoint capture
							e.startExclusiveQuiet(c)
							inSection(i)
							e.endExclusiveQuiet(c)
						case 5: // blocking syscall: outside the region, then back
							e.execEnd(c)
							runtime.Gosched()
							e.execStart(c)
							fallthrough
						default:
							e.startExclusive(c)
							inSection(i)
							e.endExclusive(c)
						}
					}
					e.execEnd(c)
				}(i, newCPU(m, uint32(i+1)))
			}
			for p := 0; p < pollers; p++ {
				pollWG.Add(1)
				go func(p int) {
					defer pollWG.Done()
					for !stop.Load() {
						e.hostStop()
						for i := range work {
							hostReads[p] += work[i]
						}
						hostReads[p] += counter
						e.hostResume()
						runtime.Gosched()
					}
				}(p)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); stop.Store(true); pollWG.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				t.Fatalf("hung: running=%d pending=%d sleepers=%d counter=%d",
					e.running.Load(), e.pending.Load(), e.sleepers.Load(), counter)
			}
			if counter != workers*sections {
				t.Errorf("counter = %d, want %d: sections overlapped", counter, workers*sections)
			}
			if r, p, s := e.running.Load(), e.pending.Load(), e.sleepers.Load(); r != 0 || p != 0 || s != 0 {
				t.Errorf("protocol did not settle: running=%d pending=%d sleepers=%d", r, p, s)
			}
		})
	}
}

// TestExclusiveCostAccounting: a requester pays base + per-cpu, and other
// vCPUs pay witness stalls.
func TestExclusiveCostAccounting(t *testing.T) {
	cfg := DefaultConfig("pico-cas")
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := newCPU(m, 1)
	b := newCPU(m, 2)
	m.cpuMu.Lock()
	m.cpus = append(m.cpus, a, b)
	m.cpuMu.Unlock()
	m.runningCPUs.Store(2)

	e := m.excl
	e.execStart(a)
	e.startExclusive(a)
	e.endExclusive(a)
	e.execEnd(a)

	wantReq := cfg.Cost.ExclusiveBase + cfg.Cost.ExclusivePerCPU
	if got := a.st.Cycles[stats.CompExclusive]; got != wantReq {
		t.Errorf("requester exclusive cycles = %d, want %d", got, wantReq)
	}
	if a.st.ExclSections != 1 {
		t.Errorf("requester sections = %d", a.st.ExclSections)
	}
	// b witnesses the section at its next checkpoint.
	b.witnessStalls()
	if got := b.st.Cycles[stats.CompExclusive]; got != cfg.Cost.ExclusiveStall {
		t.Errorf("witness stall = %d, want %d", got, cfg.Cost.ExclusiveStall)
	}
	// A second check without new sections charges nothing more.
	b.witnessStalls()
	if got := b.st.Cycles[stats.CompExclusive]; got != cfg.Cost.ExclusiveStall {
		t.Errorf("double-charged witness: %d", got)
	}
}

// TestChargeExclusiveWithoutStopping (the PST path) publishes a section for
// witnesses but never blocks anyone.
func TestChargeExclusiveWithoutStopping(t *testing.T) {
	cfg := DefaultConfig("pst")
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := newCPU(m, 1)
	b := newCPU(m, 2)
	m.cpuMu.Lock()
	m.cpus = append(m.cpus, a, b)
	m.cpuMu.Unlock()
	m.runningCPUs.Store(2)

	a.ChargeExclusive()
	if a.st.ExclSections != 1 {
		t.Error("section not recorded")
	}
	b.witnessStalls()
	if b.st.Cycles[stats.CompExclusive] == 0 {
		t.Error("witness not charged for a charged-only section")
	}
}
