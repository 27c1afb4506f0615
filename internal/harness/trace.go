package harness

import (
	"fmt"
	"io"
	"sort"

	"atomemu/internal/engine"
	"atomemu/internal/guestlib"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

// Trace is the event-trace experiment: one contended HST stack run with
// the per-vCPU tracer on, plus the merged event stream. Render prints a
// per-kind census; Chrome emits the stream in Chrome trace-event JSON
// (load into chrome://tracing or Perfetto to see exclusive sections and
// SC failures per vCPU on the virtual timeline).
type Trace struct {
	Scheme      string
	Threads     int
	Ops         uint64
	VirtualTime uint64
	Stats       stats.CPU
	Events      []obs.Event
	Dropped     uint64
}

// RunTrace executes the contended lock-free-stack run under HST with
// event tracing enabled and collects the merged trace.
func RunTrace(threads int, totalOps uint64, nodes uint32, progress Progress) (*Trace, error) {
	if progress == nil {
		progress = noProgress
	}
	const scheme = "hst"
	cfg := engine.DefaultConfig(scheme)
	cfg.MaxGuestInstrs = 4_000_000_000
	cfg.TraceEvents = true
	sb, err := guestlib.BuildStackBench(0x10000, nodes)
	if err != nil {
		return nil, err
	}
	m, err := engine.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.LoadImage(sb.Image); err != nil {
		return nil, err
	}
	if err := sb.InitStack(m.Mem()); err != nil {
		return nil, err
	}
	per := totalOps / uint64(threads)
	if per == 0 {
		per = 1
	}
	if err := spawnWorkers(m, threads, sb.Worker, uint32(per)); err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("harness: traced stack run under %s: %w", scheme, err)
	}
	t := &Trace{
		Scheme:      scheme,
		Threads:     threads,
		Ops:         per * uint64(threads),
		VirtualTime: m.VirtualTime(),
		Stats:       m.AggregateStats(),
		Events:      m.TraceEvents(),
		Dropped:     m.TraceDropped(),
	}
	progress("trace: %s threads=%d ops=%d events=%d dropped=%d",
		scheme, threads, t.Ops, len(t.Events), t.Dropped)
	return t, nil
}

// Render prints the event census: totals per kind, SC-failure reasons,
// and the time span the trace covers.
func (t *Trace) Render(w io.Writer) {
	fmt.Fprintf(w, "event trace: %s, %d threads, %d ops, %d virtual cycles\n",
		t.Scheme, t.Threads, t.Ops, t.VirtualTime)
	fmt.Fprintf(w, "%d events captured", len(t.Events))
	if t.Dropped > 0 {
		fmt.Fprintf(w, " (%d oldest dropped by ring wrap)", t.Dropped)
	}
	if len(t.Events) > 0 {
		fmt.Fprintf(w, ", vt %d .. %d", t.Events[0].VT, t.Events[len(t.Events)-1].VT)
	}
	fmt.Fprintln(w)

	kinds := map[obs.Kind]int{}
	reasons := map[uint64]int{}
	for _, e := range t.Events {
		kinds[e.Kind]++
		if e.Kind == obs.EvSCFail {
			reasons[e.Arg]++
		}
	}
	kindKeys := make([]obs.Kind, 0, len(kinds))
	for k := range kinds {
		kindKeys = append(kindKeys, k)
	}
	sort.Slice(kindKeys, func(i, j int) bool { return kindKeys[i] < kindKeys[j] })
	for _, k := range kindKeys {
		fmt.Fprintf(w, "  %-16s %d\n", k.String(), kinds[k])
	}
	if len(reasons) > 0 {
		fmt.Fprintln(w, "sc_fail reasons:")
		reasonKeys := make([]uint64, 0, len(reasons))
		for r := range reasons {
			reasonKeys = append(reasonKeys, r)
		}
		sort.Slice(reasonKeys, func(i, j int) bool { return reasonKeys[i] < reasonKeys[j] })
		for _, r := range reasonKeys {
			fmt.Fprintf(w, "  %-16s %d\n", obs.SCReasonString(r), reasons[r])
		}
	}
}

// Chrome writes the trace as Chrome trace-event JSON (saved as
// trace.json by the bench CLI's -out flag).
func (t *Trace) Chrome(w io.Writer) {
	_ = obs.WriteChromeTrace(w, t.Events)
}
