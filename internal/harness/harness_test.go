package harness

import (
	"bytes"
	"strings"
	"testing"

	"atomemu/internal/stats"
)

func TestRunWorkloadBasics(t *testing.T) {
	res, err := RunWorkload(RunConfig{Program: "swaptions", Scheme: "hst", Threads: 2, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualTime == 0 || res.Stats.GuestInstrs == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Crashed {
		t.Fatalf("unexpected crash: %s", res.CrashReason)
	}
}

func TestRunWorkloadRejectsBadInput(t *testing.T) {
	if _, err := RunWorkload(RunConfig{Program: "nope", Scheme: "hst", Threads: 1, Scale: 1}); err == nil {
		t.Error("unknown program must fail")
	}
	if _, err := RunWorkload(RunConfig{Program: "x264", Scheme: "hst", Threads: 0, Scale: 1}); err == nil {
		t.Error("zero threads must fail")
	}
	if _, err := RunWorkload(RunConfig{Program: "x264", Scheme: "bogus", Threads: 1, Scale: 1}); err == nil {
		t.Error("unknown scheme must fail")
	}
}

func TestFig10SmallSweep(t *testing.T) {
	fig, err := RunScalability(Fig10Title, Fig10Schemes(), Fig10Threads(), 0.01, []int{1, 2, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Programs) != 7 {
		t.Fatalf("programs = %v", fig.Programs)
	}
	for _, prog := range fig.Programs {
		for _, scheme := range fig.Schemes {
			series := fig.Data[prog][scheme]
			if len(series) != 3 {
				t.Fatalf("%s/%s series length %d", prog, scheme, len(series))
			}
			if series[0].Speedup != 1.0 {
				t.Errorf("%s/%s: single-thread speedup = %.2f, want 1.0", prog, scheme, series[0].Speedup)
			}
		}
	}
	var text, csv bytes.Buffer
	fig.Render(&text)
	fig.RenderSummary(&text)
	fig.CSV(&csv)
	if !strings.Contains(text.String(), "HST vs PICO-ST") {
		t.Error("render missing summary")
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 7*5*3+1 {
		t.Errorf("csv rows = %d", lines)
	}
	s := fig.Summarize()
	if s.HSTvsPicoSTGeo <= 1.0 {
		t.Errorf("HST should beat PICO-ST, geomean = %.2f", s.HSTvsPicoSTGeo)
	}
}

func TestFig12Breakdowns(t *testing.T) {
	fig, err := RunFig12(0.01, []int{1, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	remapOK := PSTRemapPrograms()
	for _, prog := range fig.Programs {
		for _, scheme := range fig.Schemes {
			for _, bp := range fig.Data[prog][scheme] {
				if scheme == "pst-remap" && !remapOK[prog] {
					if !bp.Missing {
						t.Errorf("%s under pst-remap should be marked missing", prog)
					}
					continue
				}
				if bp.Missing {
					t.Errorf("%s/%s unexpectedly missing", prog, scheme)
					continue
				}
				sum := 0.0
				for _, f := range bp.Fractions {
					sum += f
				}
				if sum < 0.99 || sum > 1.01 {
					t.Errorf("%s/%s t=%d fractions sum to %.3f", prog, scheme, bp.Threads, sum)
				}
			}
		}
	}
	// Structural claims of the paper: PICO-ST's overhead is instrumentation,
	// PST's is mprotect.
	st := fig.Data["fluidanimate"]["pico-st"][1]
	if st.Fractions[stats.CompInstrument] < 0.1 {
		t.Errorf("pico-st instrumentation fraction = %.3f, expected dominant", st.Fractions[stats.CompInstrument])
	}
	pst := fig.Data["fluidanimate"]["pst"][1]
	if pst.Fractions[stats.CompMProtect] < 0.1 {
		t.Errorf("pst mprotect fraction = %.3f, expected dominant", pst.Fractions[stats.CompMProtect])
	}
	var text, csv bytes.Buffer
	fig.Render(&text)
	fig.CSV(&csv)
	if !strings.Contains(text.String(), "mprot") || !strings.Contains(csv.String(), "mprotect") {
		t.Error("render output incomplete")
	}
}

func TestTableICensus(t *testing.T) {
	tab, err := RunTableI(0.02, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d (one per program)", len(tab.Rows))
	}
	var minR, maxR float64
	for _, r := range tab.Rows {
		if r.Stores == 0 || r.LLSC == 0 {
			t.Errorf("%s: empty census", r.Program)
		}
		if r.Ratio <= 1 {
			t.Errorf("%s: ratio %.1f", r.Program, r.Ratio)
		}
		if minR == 0 || r.Ratio < minR {
			minR = r.Ratio
		}
		if r.Ratio > maxR {
			maxR = r.Ratio
		}
	}
	if maxR/minR < 10 {
		t.Errorf("ratio spread %.1f too narrow for Table I", maxR/minR)
	}
	var text bytes.Buffer
	tab.Render(&text)
	if !strings.Contains(text.String(), "store:LLSC") {
		t.Error("table render incomplete")
	}
}

func TestCorrectnessExperimentSmall(t *testing.T) {
	c, err := RunCorrectness(8, 100_000, 4, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Runs) != 9 {
		t.Fatalf("runs = %d (eight paper schemes + pst-mpk)", len(c.Runs))
	}
	for _, r := range c.Runs {
		if r.Scheme == "pico-cas" {
			if r.CorruptPct == 0 && !r.Crashed {
				t.Error("pico-cas should corrupt the stack (racy; rerun if flaky)")
			}
			continue
		}
		if r.Report.Corrupted() || r.Crashed {
			t.Errorf("%s corrupted the stack: %s (%s)", r.Scheme, r.Report, r.Reason)
		}
	}
	var text, csv bytes.Buffer
	c.Render(&text)
	c.CSV(&csv)
	if !strings.Contains(text.String(), "pico-cas") {
		t.Error("render incomplete")
	}
}

// TestTableIIErrorNamesScheme: a failed run's error names the scheme and
// thread count it ran under, not only the workload.
func TestTableIIErrorNamesScheme(t *testing.T) {
	_, err := RunTableII(0.01, 0, nil)
	if err == nil {
		t.Fatal("RunTableII at 0 threads succeeded")
	}
	if msg := err.Error(); !strings.Contains(msg, "pico-cas, 0 threads") {
		t.Fatalf("error %q does not name its scheme and thread count", msg)
	}
}

func TestTableIISummary(t *testing.T) {
	tab, err := RunTableII(0.01, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d (eight paper schemes + pst-mpk)", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r.ClaimedAtomicity != r.MeasuredAtomicity {
			t.Errorf("%s: measured %v != claimed %v", r.Scheme, r.MeasuredAtomicity, r.ClaimedAtomicity)
		}
	}
	var byName = map[string]TableIIRow{}
	for _, r := range tab.Rows {
		byName[r.Scheme] = r
	}
	if byName["pico-cas"].RelativeTime > 1.05 {
		t.Errorf("pico-cas relative time = %.2f, should be ~1", byName["pico-cas"].RelativeTime)
	}
	if byName["hst"].RelativeTime >= byName["pico-st"].RelativeTime {
		t.Errorf("hst (%.2f) must be faster than pico-st (%.2f)",
			byName["hst"].RelativeTime, byName["pico-st"].RelativeTime)
	}
	var text bytes.Buffer
	tab.Render(&text)
	if !strings.Contains(text.String(), "measured") {
		t.Error("render incomplete")
	}
}

func TestLitmusMatrixRenders(t *testing.T) {
	var buf bytes.Buffer
	if err := LitmusMatrix(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Seq1", "Seq2", "StrongDef", "pico-cas", "hst", "classified"} {
		if !strings.Contains(out, want) {
			t.Errorf("litmus matrix missing %q", want)
		}
	}
}

func TestSpeedupHelper(t *testing.T) {
	if Speedup(100, 50) != 2.0 || Speedup(100, 0) != 0 {
		t.Error("Speedup math")
	}
}

func TestFig11SmallSweep(t *testing.T) {
	fig, err := RunScalability(Fig11Title, Fig11Schemes(), Fig11Threads(), 0.01, []int{1, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Programs) != 7 || len(fig.Schemes) != 2 {
		t.Fatalf("shape: %v / %v", fig.Programs, fig.Schemes)
	}
	for _, prog := range fig.Programs {
		for _, scheme := range fig.Schemes {
			if len(fig.Data[prog][scheme]) != 2 {
				t.Fatalf("%s/%s series truncated", prog, scheme)
			}
		}
	}
	var text, csv bytes.Buffer
	fig.Render(&text)
	fig.CSV(&csv)
	if !strings.Contains(text.String(), "pico-htm") || !strings.Contains(csv.String(), "hst-htm") {
		t.Error("render incomplete")
	}
}

func TestFig11PicoHTMCrashesAtScale(t *testing.T) {
	// The livelock crash must appear on a lock-based program at 32 threads.
	fig, err := RunScalability(Fig11Title, Fig11Schemes(), Fig11Threads(), 0.05, []int{8, 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	series := fig.Data["fluidanimate"]["pico-htm"]
	if series[0].Crashed {
		t.Error("pico-htm should survive 8 threads")
	}
	if !series[1].Crashed {
		t.Error("pico-htm should livelock at 32 threads on fluidanimate")
	}
	for _, p := range fig.Data["fluidanimate"]["hst-htm"] {
		if p.Crashed {
			t.Error("hst-htm must never crash")
		}
	}
}
