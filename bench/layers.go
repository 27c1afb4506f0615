package main

import (
	"fmt"
	"sort"
	"time"

	"atomemu/internal/asm"
	"atomemu/internal/gac"
	"atomemu/internal/mmu"
)

// layerMetric is one per-layer number. Moves names the end-to-end
// metric@workload it is expected to move (README "interactions").
type layerMetric struct {
	Name   string
	Unit   string
	Higher bool
	Moves  string
}

// layerDriver measures one internal/ package from outside, through its
// exported API only. Each lives in its own layer_<pkg>.go and registers
// itself from init, so a change that deletes a layer deletes one file here.
type layerDriver struct {
	Pkg string
	// Home is the workload whose traced child runs this driver under
	// `bench all -trace`; a BENCHMARK.json traced run runs every driver.
	Home string
	// Share is this driver's part of the time budget for all drivers.
	Share   float64
	Metrics []layerMetric
	Run     func(env *layerEnv) (map[string]float64, error)
}

// layerEnv is what a driver gets: the seed its inputs come from, how long it
// may measure, and a scratch directory.
type layerEnv struct {
	seed   int64
	budget time.Duration
	tmp    string
}

var layerTable []layerDriver

func registerLayer(d layerDriver) { layerTable = append(layerTable, d) }

func layerDrivers() []layerDriver {
	out := append([]layerDriver(nil), layerTable...)
	sort.Slice(out, func(i, j int) bool { return out[i].Pkg < out[j].Pkg })
	return out
}

// rounds is the loop condition of every budgeted measurement: true for the
// first min calls, then for as long as budget lasts, and never more than max
// times.
func rounds(budget time.Duration, min, max int) func() bool {
	deadline := time.Now().Add(budget)
	n := 0
	return func() bool {
		n++
		return n <= min || (n <= max && time.Now().Before(deadline))
	}
}

// anyNumber is rounds' max for a loop only its budget should end.
const anyNumber = 1 << 30

// nsPerOp times batches of n calls of f for about budget (at least five
// batches) and returns the median batch's nanoseconds per call.
func nsPerOp(budget time.Duration, n int, f func()) float64 {
	var per []float64
	for more := rounds(budget, 5, 1000); more(); {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per = append(per, float64(time.Since(t))/float64(n))
	}
	return median(per)
}

// timeEach calls f repeatedly for about budget (at least min times) and
// returns each call's duration in the given unit.
func timeEach(budget time.Duration, min int, unit time.Duration, f func() error) ([]float64, error) {
	var out []float64
	for more := rounds(budget, min, 100000); more(); {
		t := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t))/float64(unit))
	}
	return out, nil
}

// sampleImage is a mid-ladder straight-line program compiled and loaded
// into a bare address space, for the drivers below the engine.
type sampleImage struct {
	image   *asm.Image
	mem     *mmu.Memory
	codeEnd uint32 // first address past main's code
}

func loadSampleImage(seed int64) (*sampleImage, error) {
	prog := genStraight(newRNG(seed, "layer-sample", 0), (coldStmtsLo+coldStmtsHi)/2)
	im, err := gac.Compile(prog.Source)
	if err != nil {
		return nil, fmt.Errorf("sample image: %w", err)
	}
	mem := mmu.New(64 << 20)
	base := mmu.PageBase(im.Org)
	size := (im.End() - base + mmu.PageSize - 1) &^ uint32(mmu.PageMask)
	if err := mem.Map(base, size, mmu.PermRWX); err != nil {
		return nil, err
	}
	for i, w := range im.Words {
		if f := mem.WriteWordPriv(im.Org+uint32(i)*4, w); f != nil {
			return nil, f
		}
	}
	// Globals start on the page after the code; "acc" is the first.
	end, err := im.Symbol("g_acc")
	if err != nil {
		return nil, err
	}
	for end > im.Org && im.Words[(end-im.Org)/4-1] == 0 {
		end -= 4 // drop the alignment padding between code and data
	}
	return &sampleImage{image: im, mem: mem, codeEnd: end}, nil
}

func (s *sampleImage) fetch(pc uint32) (uint32, error) {
	w, f := s.mem.FetchWord(pc)
	if f != nil {
		return 0, f
	}
	return w, nil
}
