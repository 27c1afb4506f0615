package atomemu

import (
	"fmt"
	"testing"

	"atomemu/internal/engine"
	"atomemu/internal/harness"
	"atomemu/internal/workload"
)

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// reports virtual time so the effect of one knob is visible in isolation.

func runWith(b *testing.B, prog string, threads int, mutate func(*engine.Config)) uint64 {
	b.Helper()
	spec, ok := workload.SpecByName(prog)
	if !ok {
		b.Fatalf("no program %s", prog)
	}
	p, err := spec.Build(0x10000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.DefaultConfig("hst")
	cfg.MaxGuestInstrs = 2_000_000_000
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := engine.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.LoadImage(p.Image); err != nil {
		b.Fatal(err)
	}
	items := spec.ItemsPerThread(threads, benchScale)
	if spec.BarrierEvery > 0 {
		m.InitBarrier(p.BarrierCell, threads)
	}
	for i := 0; i < threads; i++ {
		if _, err := m.SpawnThread(p.Worker, uint32(items)); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	if err := p.Verify(m.Mem(), threads, items); err != nil {
		b.Fatal(err)
	}
	return m.VirtualTime()
}

// BenchmarkAblationRuleFusion measures the paper's §VI rule-based
// translation: fused host atomics vs the full HST path on the
// atomic-intensive programs.
func BenchmarkAblationRuleFusion(b *testing.B) {
	for _, prog := range []string{"swaptions", "fluidanimate", "blackscholes"} {
		for _, fuse := range []bool{false, true} {
			name := fmt.Sprintf("%s/fuse=%v", prog, fuse)
			b.Run(name, func(b *testing.B) {
				var vt uint64
				for i := 0; i < b.N; i++ {
					vt = runWith(b, prog, 8, func(c *engine.Config) { c.FuseAtomics = fuse })
				}
				b.ReportMetric(float64(vt), "vcycles")
			})
		}
	}
}

// BenchmarkAblationHashBits sweeps the HST table size: smaller tables mean
// more collisions, i.e. more spurious SC retries.
func BenchmarkAblationHashBits(b *testing.B) {
	for _, bits := range []uint{8, 12, 14, 18} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			var vt uint64
			for i := 0; i < b.N; i++ {
				vt = runWith(b, "fluidanimate", 8, func(c *engine.Config) { c.HashBits = bits })
			}
			b.ReportMetric(float64(vt), "vcycles")
		})
	}
}

// BenchmarkAblationOptimizer measures the IR pass pipeline's effect on
// emulation cost (IR ops retired per run).
func BenchmarkAblationOptimizer(b *testing.B) {
	for _, noOpt := range []bool{false, true} {
		b.Run(fmt.Sprintf("optimize=%v", !noOpt), func(b *testing.B) {
			var vt uint64
			for i := 0; i < b.N; i++ {
				vt = runWith(b, "x264", 4, func(c *engine.Config) { c.NoOptimize = noOpt })
			}
			b.ReportMetric(float64(vt), "vcycles")
		})
	}
}

// BenchmarkAblationPSTMPK is the §VI discussion quantified: the MPK variant
// against classic PST and PST-REMAP on the false-sharing program.
func BenchmarkAblationPSTMPK(b *testing.B) {
	for _, scheme := range []string{"pst", "pst-remap", "pst-mpk"} {
		b.Run(scheme, func(b *testing.B) {
			var vt uint64
			for i := 0; i < b.N; i++ {
				res, err := harness.RunWorkload(harness.RunConfig{
					Program: "bodytrack", Scheme: scheme, Threads: 8, Scale: benchScale,
				})
				if err != nil {
					b.Fatal(err)
				}
				vt = res.VirtualTime
			}
			b.ReportMetric(float64(vt), "vcycles")
		})
	}
}
