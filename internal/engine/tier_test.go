package engine

import (
	"errors"
	"strings"
	"testing"

	"atomemu/internal/faultinject"
	"atomemu/internal/stats"
)

// runCounterWorkload runs the shared-counter guest on threads vCPUs and
// returns the machine for inspection. The guest is the same LL/SC counter
// the scheme correctness tests use, so any tier/chain bug that perturbs
// architectural state shows up as a wrong final count.
func runCounterWorkload(t *testing.T, cfg Config, threads int, iters uint32) *Machine {
	t.Helper()
	im := buildImage(t, counterProgram)
	cfg.MaxGuestInstrs = 50_000_000
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < threads; i++ {
		if _, err := m.SpawnThread(im.Entry, iters); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	counter := im.MustSymbol("counter")
	got, f := m.Mem().ReadWordPriv(counter)
	if f != nil {
		t.Fatal(f)
	}
	if want := uint32(threads) * iters; got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	return m
}

// TestTieredChainedMatchesBaseline: the IR-bypass fast path (interp tier,
// superblock promotion, direct chaining) must be architecturally invisible.
// Single-threaded the comparison is exact — an uncontended run retires the
// same guest instruction stream block by block, so GuestInstrs must match
// the baseline to the instruction. The fast run must also actually exercise
// every new mechanism (interp executions, promotions, installed links,
// followed links all nonzero).
func TestTieredChainedMatchesBaseline(t *testing.T) {
	for _, scheme := range []string{"pico-cas", "hst", "pico-htm"} {
		t.Run(scheme, func(t *testing.T) {
			base := runCounterWorkload(t, DefaultConfig(scheme), 1, 2000).AggregateStats()

			cfg := DefaultConfig(scheme)
			cfg.ChainBudget = 64
			cfg.Tiered = true
			cfg.HotThreshold = 8
			fast := runCounterWorkload(t, cfg, 1, 2000).AggregateStats()

			if fast.GuestInstrs != base.GuestInstrs {
				t.Errorf("guest instructions diverged: %d (fast) vs %d (base)",
					fast.GuestInstrs, base.GuestInstrs)
			}
			if fast.InterpBlocks == 0 {
				t.Error("tiered run never used the interp tier")
			}
			if fast.TierPromotions == 0 {
				t.Error("hot blocks were never promoted to IR")
			}
			if fast.ChainLinks == 0 || fast.ChainFollows == 0 {
				t.Errorf("chaining idle: links=%d follows=%d", fast.ChainLinks, fast.ChainFollows)
			}
			if base.InterpBlocks != 0 || base.TierPromotions != 0 || base.ChainFollows != 0 {
				t.Errorf("baseline run used fast-path mechanisms: %+v", base)
			}
		})
	}
}

// TestTieredChainedContended re-runs the contended 4-way counter with the
// full fast path on: the per-scheme atomicity guarantee (no lost updates)
// is asserted inside runCounterWorkload.
func TestTieredChainedContended(t *testing.T) {
	for _, scheme := range []string{"pico-cas", "hst", "pico-htm", "pst"} {
		t.Run(scheme, func(t *testing.T) {
			cfg := DefaultConfig(scheme)
			cfg.ChainBudget = 64
			cfg.Tiered = true
			cfg.HotThreshold = 8
			runCounterWorkload(t, cfg, 4, 600)
		})
	}
}

// TestMaxGuestInstrsOvershootBounded is the regression test for the budget
// clamp: the check used to run only at block entry with strict >, so a run
// could overshoot MaxGuestInstrs by up to a full TB (and a superblock once
// tiering landed). Now the final block is truncated to the remainder, so
// the run stops at exactly the budget in every tier.
func TestMaxGuestInstrsOvershootBounded(t *testing.T) {
	// An infinite loop with a straight-line body longer than most budgets'
	// remainders, so the clamp must cut inside a block.
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    movi r1, #0
loop:
    addi r1, r1, #1
    addi r1, r1, #2
    addi r1, r1, #3
    addi r1, r1, #4
    addi r1, r1, #5
    addi r1, r1, #6
    addi r1, r1, #7
    b loop
`)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"plain", func(cfg *Config) {}},
		{"chained", func(cfg *Config) { cfg.ChainBudget = 64 }},
		{"tiered", func(cfg *Config) { cfg.Tiered = true; cfg.HotThreshold = 4; cfg.ChainBudget = 64 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const budget = 1003 // ≡ 2 mod 8+... deliberately not a block multiple
			cfg := DefaultConfig("pico-cas")
			cfg.MaxGuestInstrs = budget
			tc.mut(&cfg)
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadImage(im); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Start(im.Entry); err != nil {
				t.Fatal(err)
			}
			err = m.Run()
			if err == nil || !strings.Contains(err.Error(), "exceeded") {
				t.Fatalf("runaway guest should be stopped with an exceeded error, got %v", err)
			}
			agg := m.AggregateStats()
			if agg.GuestInstrs > budget+1 {
				t.Errorf("overshoot: executed %d guest instructions with a budget of %d",
					agg.GuestInstrs, budget)
			}
			if agg.GuestInstrs < budget {
				t.Errorf("stopped early: executed %d of the %d budgeted instructions",
					agg.GuestInstrs, budget)
			}
		})
	}
}

// checkLocalTierConsistent asserts the per-vCPU TB tier invariants after a
// run: every cached block must be the canonical shared-cache entry for its
// pc (a mismatch means the vCPU kept a block across a flush — exactly the
// stale-instrumentation bug demotion used to allow), and every chain link
// must point at an entry of the same map (a dangling link would chain into
// a flushed generation). The jump cache in front of the map may only hold
// pointers the map holds, in the slot their pc indexes — an entry that
// outlived the map (a restore that forgot to clear it) fails both this and
// the canonical-block check.
func checkLocalTierConsistent(t *testing.T, m *Machine) {
	t.Helper()
	for _, c := range m.CPUs() {
		for i, lt := range c.jumpCache {
			if lt == nil {
				continue
			}
			if c.localTBs[lt.start] != lt || int(jumpSlot(lt.start)) != i {
				t.Errorf("tid %d: jump-cache slot %d holds a localTB for pc %#x that localTBs does not",
					c.TID(), i, lt.start)
			}
			if got := m.tbs.get(lt.start); got != lt.tb {
				t.Errorf("tid %d resolves pc %#x through a stale jump-cache entry", c.TID(), lt.start)
			}
		}
		for pc, lt := range c.localTBs {
			if got := m.tbs.get(pc); got != lt.tb {
				t.Errorf("tid %d caches a TB for pc %#x that is not the canonical shared block",
					c.TID(), pc)
			}
			for _, link := range [...]*localTB{lt.taken, lt.fall} {
				if link != nil && c.localTBs[link.start] != link {
					t.Errorf("tid %d: chain link %#x→%#x dangles outside the local tier",
						c.TID(), pc, link.start)
				}
			}
		}
	}
}

// TestDemotionFlushesChainedLocalTBs drives the wedged-SC guest into
// watchdog-triggered scheme demotion (PICO-HTM → portable HST changes the
// instrumentation options and flushes the shared TB cache) with chaining
// and tiering on. Run under -race: the relaunched vCPUs re-translate
// concurrently, and afterwards no vCPU may hold a block or chain link from
// the pre-demotion generation.
func TestDemotionFlushesChainedLocalTBs(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry worker
worker:
    ldr r4, =xvar
    ldr r5, =yvar
loop:
    ldrex r1, [r4]
    strex r2, r1, [r5]
    b loop
.align 1024
xvar: .word 1
yvar: .word 2
`)
	cfg := DefaultConfig("pico-htm")
	cfg.MaxGuestInstrs = 2_000_000_000
	cfg.WatchdogSCFails = 500
	cfg.CheckpointEvery = 2_000
	cfg.ChainBudget = 32
	cfg.Tiered = true
	cfg.HotThreshold = 4
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.SpawnThread(im.Entry, 0); err != nil {
			t.Fatal(err)
		}
	}
	err = m.Run()
	var re *RecoveryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("wedged guest should exhaust recovery, got %v", err)
	}
	if got := m.Scheme().Name(); got != "hst" {
		t.Fatalf("scheme-attributed failure should demote to hst, still %q", got)
	}
	// The demotion changed the instrumentation options: every surviving
	// localTB must belong to the post-flush shared cache generation.
	checkLocalTierConsistent(t, m)
}

// TestChainingSurvivesCheckpointRestore kills a chained 8-vCPU lock-free
// stack run with an injected store fault mid-flight: the restore must drop
// every chain link along with the rolled-back state, and the resumed run
// re-links and completes with an intact stack.
func TestChainingSurvivesCheckpointRestore(t *testing.T) {
	cfg := DefaultConfig("hst")
	cfg.MaxGuestInstrs = 2_000_000_000
	cfg.CheckpointEvery = 100_000
	cfg.ChainBudget = 64
	cfg.FaultInjector = faultinject.New(faultinject.Rule{
		Op: faultinject.OpMemStore, Action: faultinject.ActFault, After: 6_000, Count: 1,
	})
	agg, rep := runStackResilience(t, cfg, 8, 256, 256)
	if cfg.FaultInjector.Fired() == 0 {
		t.Fatal("injected fault never fired; the test exercised nothing")
	}
	if agg.RecoveryRestores == 0 {
		t.Error("run should have rolled back to a checkpoint at least once")
	}
	if agg.ChainFollows == 0 {
		t.Error("chaining never followed a link")
	}
	if rep.Corrupted() {
		t.Errorf("stack corrupted after recovery: %+v", rep)
	}
}

// TestTieredMetricsExposeTranslateCycles: the headline attribution fix —
// translation work must land in CompTBTranslate (and cache probes in
// CompTBLookup), never fold into CompNative, in both the tiered and the
// always-IR pipeline.
func TestTieredMetricsExposeTranslateCycles(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		cfg := DefaultConfig("hst")
		cfg.Tiered = tiered
		cfg.ChainBudget = 16
		cfg.HotThreshold = 8
		agg := runCounterWorkload(t, cfg, 2, 200).AggregateStats()
		if agg.Cycles[stats.CompTBTranslate] == 0 {
			t.Errorf("tiered=%v: no cycles attributed to tb_translate", tiered)
		}
		if agg.Cycles[stats.CompTBLookup] == 0 {
			t.Errorf("tiered=%v: no cycles attributed to tb_lookup", tiered)
		}
	}
}
