package harness

import (
	"fmt"
	"io"
	"math"
	"sort"

	"atomemu/internal/core"
	"atomemu/internal/htm"
	"atomemu/internal/litmus"
	"atomemu/internal/stats"
	"atomemu/internal/workload"
)

// Point is one (threads, time) sample of a scalability series.
type Point struct {
	Threads     int
	VirtualTime uint64
	// Speedup is normalized to the same series' single-thread time, as in
	// the paper's Fig. 10/11.
	Speedup float64
	Crashed bool
}

// Fig10Title heads the paper's Figure 10.
const Fig10Title = "Figure 10 — scalability (speedup vs own 1-thread)"

// Fig10Schemes are the software schemes of the paper's Figure 10, plus the
// PICO-CAS reference the text compares against.
func Fig10Schemes() []string { return []string{"pico-cas", "pico-st", "hst", "hst-weak", "pst"} }

// Fig10Threads is the paper's thread sweep.
func Fig10Threads() []int { return []int{1, 2, 4, 8, 16, 32, 64} }

// Fig11Title heads Figure 11.
const Fig11Title = "Figure 11 — HTM schemes scalability"

// Fig11Schemes are the HTM-based schemes.
func Fig11Schemes() []string { return []string{"pico-htm", "hst-htm"} }

// Fig11Threads is the paper's HTM sweep (their workstation tops out at 32).
func Fig11Threads() []int { return []int{1, 2, 4, 8, 16, 32} }

// Scalability is a scalability experiment (Fig. 10, Fig. 11): every
// scalability program under each scheme over a thread sweep.
type Scalability struct {
	Title    string
	Scale    float64
	Threads  []int
	Programs []string
	Schemes  []string
	// Data[program][scheme] is the series over Threads.
	Data map[string]map[string][]Point
}

// Progress receives one line per completed run (nil is fine).
type Progress func(format string, args ...any)

func noProgress(string, ...any) {}

// RunScalability sweeps schemes over threads (defaultThreads when empty)
// on every scalability program.
func RunScalability(title string, schemes []string, defaultThreads []int, scale float64, threads []int, progress Progress) (*Scalability, error) {
	if progress == nil {
		progress = noProgress
	}
	if len(threads) == 0 {
		threads = defaultThreads
	}
	fig := &Scalability{
		Title:   title,
		Scale:   scale,
		Threads: threads,
		Schemes: schemes,
		Data:    make(map[string]map[string][]Point),
	}
	for _, spec := range workload.ScalabilitySpecs() {
		fig.Programs = append(fig.Programs, spec.Name)
	}
	for _, prog := range fig.Programs {
		fig.Data[prog] = make(map[string][]Point)
		for _, scheme := range fig.Schemes {
			series, err := runSeries(prog, scheme, threads, scale, progress)
			if err != nil {
				return nil, err
			}
			fig.Data[prog][scheme] = series
		}
	}
	return fig, nil
}

func runSeries(prog, scheme string, threads []int, scale float64, progress Progress) ([]Point, error) {
	var series []Point
	var base uint64
	for _, t := range threads {
		res, err := RunWorkload(RunConfig{Program: prog, Scheme: scheme, Threads: t, Scale: scale})
		if err != nil {
			return nil, err
		}
		p := Point{Threads: t, VirtualTime: res.VirtualTime, Crashed: res.Crashed}
		if res.Crashed {
			progress("%-13s %-9s t=%-3d CRASH: %s", prog, scheme, t, res.CrashReason)
			series = append(series, p)
			continue
		}
		if base == 0 {
			base = res.VirtualTime
		}
		p.Speedup = Speedup(base, res.VirtualTime)
		progress("%-13s %-9s t=%-3d vt=%-12d speedup=%.2f", prog, scheme, t, p.VirtualTime, p.Speedup)
		series = append(series, p)
	}
	return series, nil
}

// Summary condenses Fig. 10 into the paper's §IV-B headline numbers.
type Summary struct {
	// HSTvsPicoST is the distribution over programs of the per-program
	// geomean (over thread counts) of VT(pico-st)/VT(hst): the paper
	// reports min 1.25x, max 3.21x, geomean 2.03x.
	HSTvsPicoSTMin, HSTvsPicoSTMax, HSTvsPicoSTGeo float64
	// HSTOverheadVsPicoCAS1T is the smallest per-program overhead
	// VT(hst)/VT(pico-cas)-1 at one thread; MaxT the largest at the top
	// thread count (paper: 2.9% up to 555%).
	HSTOverheadVsPicoCAS1T, HSTOverheadVsPicoCASMaxT float64
}

// Summarize computes the headline comparison from a Fig. 10 dataset.
func (fig *Scalability) Summarize() Summary {
	var s Summary
	last := len(fig.Threads) - 1
	var ratios []float64
	var ovh1, ovhN []float64
	for _, prog := range fig.Programs {
		hst := fig.Data[prog]["hst"]
		st := fig.Data[prog]["pico-st"]
		cas := fig.Data[prog]["pico-cas"]
		if len(hst) == 0 || len(st) == 0 || len(cas) == 0 {
			continue
		}
		logSum, n := 0.0, 0
		for i := range fig.Threads {
			if i < len(st) && i < len(hst) && !st[i].Crashed && !hst[i].Crashed && hst[i].VirtualTime > 0 {
				logSum += math.Log(float64(st[i].VirtualTime) / float64(hst[i].VirtualTime))
				n++
			}
		}
		if n > 0 {
			ratios = append(ratios, math.Exp(logSum/float64(n)))
		}
		if cas[0].VirtualTime > 0 {
			ovh1 = append(ovh1, float64(hst[0].VirtualTime)/float64(cas[0].VirtualTime)-1)
		}
		if cas[last].VirtualTime > 0 {
			ovhN = append(ovhN, float64(hst[last].VirtualTime)/float64(cas[last].VirtualTime)-1)
		}
	}
	if len(ratios) > 0 {
		s.HSTvsPicoSTMin, s.HSTvsPicoSTMax = ratios[0], ratios[0]
		logSum := 0.0
		for _, r := range ratios {
			s.HSTvsPicoSTMin = math.Min(s.HSTvsPicoSTMin, r)
			s.HSTvsPicoSTMax = math.Max(s.HSTvsPicoSTMax, r)
			logSum += math.Log(r)
		}
		s.HSTvsPicoSTGeo = math.Exp(logSum / float64(len(ratios)))
	}
	s.HSTOverheadVsPicoCAS1T = minOf(ovh1)
	s.HSTOverheadVsPicoCASMaxT = maxOf(ovhN)
	return s
}

func maxOf(v []float64) float64 {
	out := 0.0
	for _, x := range v {
		out = math.Max(out, x)
	}
	return out
}

func minOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	out := v[0]
	for _, x := range v {
		out = math.Min(out, x)
	}
	return out
}

// Render writes the figure as aligned text series.
func (fig *Scalability) Render(w io.Writer) {
	fmt.Fprintf(w, "%s, scale=%.3f\n", fig.Title, fig.Scale)
	for _, prog := range fig.Programs {
		fmt.Fprintf(w, "\n%s\n  %-10s", prog, "threads")
		for _, t := range fig.Threads {
			fmt.Fprintf(w, "%8d", t)
		}
		fmt.Fprintln(w)
		for _, scheme := range fig.Schemes {
			fmt.Fprintf(w, "  %-10s", scheme)
			for _, p := range fig.Data[prog][scheme] {
				if p.Crashed {
					fmt.Fprintf(w, "%8s", "crash")
				} else {
					fmt.Fprintf(w, "%8.2f", p.Speedup)
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// RenderSummary writes Fig. 10's headline comparison (Summarize) against
// the paper's numbers.
func (fig *Scalability) RenderSummary(w io.Writer) {
	s := fig.Summarize()
	fmt.Fprintf(w, "\nHST vs PICO-ST speedup: min %.2fx max %.2fx geomean %.2fx (paper: 1.25x / 3.21x / 2.03x)\n",
		s.HSTvsPicoSTMin, s.HSTvsPicoSTMax, s.HSTvsPicoSTGeo)
	fmt.Fprintf(w, "HST overhead vs PICO-CAS: %.1f%% at 1 thread, %.1f%% at %d threads (paper: 2.9%% .. 555%%)\n",
		100*s.HSTOverheadVsPicoCAS1T, 100*s.HSTOverheadVsPicoCASMaxT, fig.Threads[len(fig.Threads)-1])
}

// CSV writes the figure as rows: program,scheme,threads,virtual_time,speedup,crashed.
func (fig *Scalability) CSV(w io.Writer) {
	fmt.Fprintln(w, "program,scheme,threads,virtual_time,speedup,crashed")
	for _, prog := range fig.Programs {
		for _, scheme := range fig.Schemes {
			for _, p := range fig.Data[prog][scheme] {
				fmt.Fprintf(w, "%s,%s,%d,%d,%.4f,%v\n", prog, scheme, p.Threads, p.VirtualTime, p.Speedup, p.Crashed)
			}
		}
	}
}

// Fig12Schemes are the breakdown schemes, in the paper's bar order.
func Fig12Schemes() []string { return []string{"pico-st", "hst", "pst", "pst-remap"} }

// Fig12Threads is the paper's breakdown sweep.
func Fig12Threads() []int { return []int{1, 2, 4, 8, 16, 32} }

// PSTRemapPrograms are the four PARSEC programs the paper's PST-REMAP
// prototype supports.
func PSTRemapPrograms() map[string]bool {
	return map[string]bool{"blackscholes": true, "bodytrack": true, "freqmine": true, "swaptions": true}
}

// BreakdownPoint is one stacked bar of Fig. 12.
type BreakdownPoint struct {
	Threads     int
	VirtualTime uint64
	// Fractions sum to 1 across stats components.
	Fractions [stats.NumComponents]float64
	Missing   bool // scheme/program combination not run (PST-REMAP limits)
}

// Fig12 is the overhead-breakdown experiment.
type Fig12 struct {
	Scale    float64
	Threads  []int
	Programs []string
	Schemes  []string
	Data     map[string]map[string][]BreakdownPoint
}

// RunFig12 sweeps the breakdown matrix.
func RunFig12(scale float64, threads []int, progress Progress) (*Fig12, error) {
	if progress == nil {
		progress = noProgress
	}
	if len(threads) == 0 {
		threads = Fig12Threads()
	}
	remapOK := PSTRemapPrograms()
	fig := &Fig12{Scale: scale, Threads: threads, Schemes: Fig12Schemes(), Data: make(map[string]map[string][]BreakdownPoint)}
	for _, spec := range workload.Specs() {
		fig.Programs = append(fig.Programs, spec.Name)
	}
	for _, prog := range fig.Programs {
		fig.Data[prog] = make(map[string][]BreakdownPoint)
		for _, scheme := range fig.Schemes {
			var series []BreakdownPoint
			for _, t := range threads {
				if scheme == "pst-remap" && !remapOK[prog] {
					series = append(series, BreakdownPoint{Threads: t, Missing: true})
					continue
				}
				res, err := RunWorkload(RunConfig{Program: prog, Scheme: scheme, Threads: t, Scale: scale})
				if err != nil {
					return nil, err
				}
				bp := BreakdownPoint{Threads: t, VirtualTime: res.VirtualTime, Fractions: res.Stats.Breakdown()}
				progress("%-13s %-9s t=%-3d native=%.2f excl=%.2f instr=%.2f mprot=%.2f",
					prog, scheme, t, bp.Fractions[stats.CompNative], bp.Fractions[stats.CompExclusive],
					bp.Fractions[stats.CompInstrument], bp.Fractions[stats.CompMProtect])
				series = append(series, bp)
			}
			fig.Data[prog][scheme] = series
		}
	}
	return fig, nil
}

// Render writes the breakdown as per-program tables.
func (fig *Fig12) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 12 — execution-time breakdown (fraction of cycles), scale=%.3f\n", fig.Scale)
	for _, prog := range fig.Programs {
		fmt.Fprintf(w, "\n%s\n  %-10s %-8s %-12s %8s %8s %8s %8s %8s\n",
			prog, "scheme", "threads", "vtime", "native", "excl", "instr", "mprot", "htm")
		for _, scheme := range fig.Schemes {
			for _, bp := range fig.Data[prog][scheme] {
				if bp.Missing {
					fmt.Fprintf(w, "  %-10s %-8d %-12s\n", scheme, bp.Threads, "n/a")
					continue
				}
				fmt.Fprintf(w, "  %-10s %-8d %-12d %8.3f %8.3f %8.3f %8.3f %8.3f\n",
					scheme, bp.Threads, bp.VirtualTime,
					bp.Fractions[stats.CompNative], bp.Fractions[stats.CompExclusive],
					bp.Fractions[stats.CompInstrument], bp.Fractions[stats.CompMProtect],
					bp.Fractions[stats.CompHTM])
			}
		}
	}
}

// CSV writes the breakdown rows.
func (fig *Fig12) CSV(w io.Writer) {
	fmt.Fprintln(w, "program,scheme,threads,virtual_time,native,exclusive,instrument,mprotect,htm,missing")
	for _, prog := range fig.Programs {
		for _, scheme := range fig.Schemes {
			for _, bp := range fig.Data[prog][scheme] {
				fmt.Fprintf(w, "%s,%s,%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%v\n",
					prog, scheme, bp.Threads, bp.VirtualTime,
					bp.Fractions[stats.CompNative], bp.Fractions[stats.CompExclusive],
					bp.Fractions[stats.CompInstrument], bp.Fractions[stats.CompMProtect],
					bp.Fractions[stats.CompHTM], bp.Missing)
			}
		}
	}
}

// TableIRow is one program's instruction census.
type TableIRow struct {
	Program      string
	GuestInstrs  uint64
	Stores       uint64
	LLSC         uint64 // LL count (pairs)
	Ratio        float64
	CollisionPct float64 // HST hash-collision rate among instrumented accesses
}

// TableI holds the census.
type TableI struct {
	Scale float64
	Rows  []TableIRow
}

// RunTableI profiles every program under HST with collision profiling.
// Use enough threads (the paper used a full machine) for the per-thread
// buffers to span the hash table and alias.
func RunTableI(scale float64, threads int, progress Progress) (*TableI, error) {
	if progress == nil {
		progress = noProgress
	}
	tab := &TableI{Scale: scale}
	for _, spec := range workload.Specs() {
		res, err := RunWorkload(RunConfig{
			Program: spec.Name, Scheme: "hst", Threads: threads,
			Scale: scale, ProfileCollisions: true,
		})
		if err != nil {
			return nil, err
		}
		st := res.Stats
		row := TableIRow{
			Program:     spec.Name,
			GuestInstrs: st.GuestInstrs,
			Stores:      st.Stores,
			LLSC:        st.LLs,
			Ratio:       st.StoreToLLSCRatio(),
		}
		if touched := st.Stores + st.LLs; touched > 0 {
			row.CollisionPct = 100 * float64(st.HashConflicts) / float64(touched)
		}
		progress("%-13s instrs=%-10d stores=%-9d llsc=%-7d ratio=%.0f", spec.Name,
			row.GuestInstrs, row.Stores, row.LLSC, row.Ratio)
		tab.Rows = append(tab.Rows, row)
	}
	return tab, nil
}

// Render writes Table I.
func (tab *TableI) Render(w io.Writer) {
	fmt.Fprintf(w, "Table I — instruction census (scale=%.3f)\n", tab.Scale)
	fmt.Fprintf(w, "%-14s %12s %12s %10s %12s %10s\n",
		"program", "guest instrs", "stores", "LL/SC", "store:LLSC", "hash coll%")
	for _, r := range tab.Rows {
		fmt.Fprintf(w, "%-14s %12d %12d %10d %12.0f %9.2f%%\n",
			r.Program, r.GuestInstrs, r.Stores, r.LLSC, r.Ratio, r.CollisionPct)
	}
}

// CSV writes Table I rows.
func (tab *TableI) CSV(w io.Writer) {
	fmt.Fprintln(w, "program,guest_instrs,stores,llsc,store_llsc_ratio,hash_collision_pct")
	for _, r := range tab.Rows {
		fmt.Fprintf(w, "%s,%d,%d,%d,%.2f,%.4f\n", r.Program, r.GuestInstrs, r.Stores, r.LLSC, r.Ratio, r.CollisionPct)
	}
}

// TableIIRow is one scheme's qualitative summary, with the atomicity
// *measured* by the litmus harness rather than asserted.
type TableIIRow struct {
	Scheme            string
	RelativeTime      float64 // geomean VT vs pico-cas, same program/threads
	Speed             string  // fast / varies / slow, derived from RelativeTime
	ClaimedAtomicity  core.Atomicity
	MeasuredAtomicity core.Atomicity
	Portable          bool
	Crashed           bool // any benchmark crash (PICO-HTM livelock)
}

// TableII holds the summary matrix.
type TableII struct {
	Threads int
	Scale   float64
	Rows    []TableIIRow
}

// tableIIRunError names the scheme and thread count of a failed Table II
// run: a workload's own error (a lost critical section, say) names only
// the workload.
func tableIIRunError(scheme string, threads int, err error) error {
	return fmt.Errorf("table II: %s, %d threads: %w", scheme, threads, err)
}

// RunTableII measures every scheme: relative time on the scalability suite
// at the given thread count, plus the litmus atomicity classification.
func RunTableII(scale float64, threads int, progress Progress) (*TableII, error) {
	if progress == nil {
		progress = noProgress
	}
	tab := &TableII{Threads: threads, Scale: scale}
	// Baseline: pico-cas on every program.
	base := make(map[string]uint64)
	for _, spec := range workload.ScalabilitySpecs() {
		res, err := RunWorkload(RunConfig{Program: spec.Name, Scheme: "pico-cas", Threads: threads, Scale: scale})
		if err != nil {
			return nil, tableIIRunError("pico-cas", threads, err)
		}
		base[spec.Name] = res.VirtualTime
	}
	for _, scheme := range core.SchemeNames() {
		row := TableIIRow{Scheme: scheme}
		// Litmus classification.
		results, err := litmus.RunAll(scheme)
		if err != nil {
			return nil, err
		}
		row.MeasuredAtomicity = litmus.Classify(results)
		s, err := core.New(scheme, schemeProbeDeps())
		if err != nil {
			return nil, err
		}
		row.ClaimedAtomicity = s.Atomicity()
		row.Portable = s.Portable()
		// Relative time.
		logSum, n := 0.0, 0
		for _, spec := range workload.ScalabilitySpecs() {
			res, err := RunWorkload(RunConfig{Program: spec.Name, Scheme: scheme, Threads: threads, Scale: scale})
			if err != nil {
				return nil, tableIIRunError(scheme, threads, err)
			}
			if res.Crashed {
				row.Crashed = true
				continue
			}
			if b := base[spec.Name]; b > 0 && res.VirtualTime > 0 {
				logSum += math.Log(float64(res.VirtualTime) / float64(b))
				n++
			}
		}
		if n > 0 {
			row.RelativeTime = math.Exp(logSum / float64(n))
		}
		switch {
		case row.Crashed:
			row.Speed = "crashes"
		case row.RelativeTime <= 1.6:
			row.Speed = "fast"
		case row.RelativeTime <= 4:
			row.Speed = "varies"
		default:
			row.Speed = "slow"
		}
		progress("%-10s rel=%.2fx atomicity=%s portable=%v", scheme, row.RelativeTime, row.MeasuredAtomicity, row.Portable)
		tab.Rows = append(tab.Rows, row)
	}
	sort.Slice(tab.Rows, func(i, j int) bool { return tab.Rows[i].Scheme < tab.Rows[j].Scheme })
	return tab, nil
}

func schemeProbeDeps() core.Deps {
	cm := core.DefaultCostModel()
	tab, _ := core.NewHashTable(8)
	tm, _ := htm.New(8, 0)
	return core.Deps{Cost: &cm, Htab: tab, TM: tm}
}

// Render writes Table II.
func (tab *TableII) Render(w io.Writer) {
	fmt.Fprintf(w, "Table II — scheme summary (threads=%d, scale=%.3f)\n", tab.Threads, tab.Scale)
	fmt.Fprintf(w, "%-11s %10s %-8s %-10s %-10s %-9s\n",
		"scheme", "rel. time", "speed", "claimed", "measured", "portable")
	for _, r := range tab.Rows {
		port := "portable"
		if !r.Portable {
			port = "HTM"
		}
		fmt.Fprintf(w, "%-11s %9.2fx %-8s %-10s %-10s %-9s\n",
			r.Scheme, r.RelativeTime, r.Speed, r.ClaimedAtomicity, r.MeasuredAtomicity, port)
	}
}

// CSV writes Table II rows.
func (tab *TableII) CSV(w io.Writer) {
	fmt.Fprintln(w, "scheme,relative_time,speed,claimed_atomicity,measured_atomicity,portable,crashed")
	for _, r := range tab.Rows {
		fmt.Fprintf(w, "%s,%.4f,%s,%s,%s,%v,%v\n",
			r.Scheme, r.RelativeTime, r.Speed, r.ClaimedAtomicity, r.MeasuredAtomicity, r.Portable, r.Crashed)
	}
}

// Correctness is the §IV-A experiment across every scheme.
type Correctness struct {
	Threads int
	Ops     uint64
	Nodes   uint32
	Runs    []StackRun
}

// RunCorrectness executes the lock-free-stack audit per scheme. attempts
// re-runs PICO-CAS until corruption manifests (it is a race), up to the
// given count; the other schemes run once and must stay clean.
func RunCorrectness(threads int, ops uint64, nodes uint32, attempts int, progress Progress) (*Correctness, error) {
	if progress == nil {
		progress = noProgress
	}
	if attempts < 1 {
		attempts = 1
	}
	out := &Correctness{Threads: threads, Ops: ops, Nodes: nodes}
	for _, scheme := range core.SchemeNames() {
		tries := 1
		if scheme == "pico-cas" {
			tries = attempts
		}
		schemeThreads := threads
		if scheme == "pico-htm" && schemeThreads > 8 {
			// The paper's PICO-HTM livelocks beyond 8 threads (Fig. 11);
			// its correctness run uses the supported width.
			schemeThreads = 8
		}
		var last *StackRun
		for i := 0; i < tries; i++ {
			run, err := RunStack(scheme, schemeThreads, ops, nodes)
			if err != nil {
				return nil, err
			}
			last = run
			if run.Report.Corrupted() || run.Crashed {
				break
			}
		}
		progress("%-10s corrupt=%.1f%% crashed=%v (%s)", scheme, last.CorruptPct, last.Crashed, last.Report)
		out.Runs = append(out.Runs, *last)
	}
	return out, nil
}

// Render writes the correctness table.
func (c *Correctness) Render(w io.Writer) {
	fmt.Fprintf(w, "Correctness (§IV-A) — lock-free stack, %d threads, %d ops, %d nodes\n", c.Threads, c.Ops, c.Nodes)
	fmt.Fprintf(w, "%-11s %8s %10s %-9s %s\n", "scheme", "threads", "corrupt %", "crashed", "audit")
	for _, r := range c.Runs {
		fmt.Fprintf(w, "%-11s %8d %9.1f%% %-9v %s\n", r.Scheme, r.Threads, r.CorruptPct, r.Crashed, r.Report)
	}
}

// CSV writes the correctness rows.
func (c *Correctness) CSV(w io.Writer) {
	fmt.Fprintln(w, "scheme,corrupt_pct,crashed,self_loops,cycles,missing,walked")
	for _, r := range c.Runs {
		fmt.Fprintf(w, "%s,%.2f,%v,%d,%v,%d,%d\n",
			r.Scheme, r.CorruptPct, r.Crashed, r.Report.SelfLoops, r.Report.Cycles, r.Report.Missing, r.Report.Walked)
	}
}

// LitmusMatrix renders the per-sequence SC_a outcome per scheme.
func LitmusMatrix(w io.Writer) error {
	seqs := litmus.StandardSequences()
	fmt.Fprintf(w, "Litmus (§IV-A sequences) — final SC_a outcome per scheme (ok = succeeded)\n")
	fmt.Fprintf(w, "%-11s", "scheme")
	for _, s := range seqs {
		fmt.Fprintf(w, "%10s", s.Name)
	}
	fmt.Fprintf(w, "%12s\n", "classified")
	for _, scheme := range core.SchemeNames() {
		results, err := litmus.RunAll(scheme)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-11s", scheme)
		for _, s := range seqs {
			out := "fail"
			if results[s.Name].FinalSCSuccess {
				out = "ok"
			}
			fmt.Fprintf(w, "%10s", out)
		}
		fmt.Fprintf(w, "%12s\n", litmus.Classify(results))
	}
	return nil
}
