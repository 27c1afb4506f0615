package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

// Latency-histogram bucket bounds. Wall buckets span sub-millisecond unit
// tests to the 2-minute deadline cap; virtual buckets are decades of the
// cycle budgets jobs run under.
var (
	wallBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 15, 30, 60, 120}
	virtBuckets = []float64{1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11}
)

// observeJob folds one finished machine into the server-lifetime engine
// aggregate and the per-scheme latency histograms. Called from finish for
// every job that got a machine, whatever its terminal state.
func (s *Server) observeJob(scheme string, agg *stats.CPU, wall time.Duration, virt uint64) {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	s.engineAgg.Add(agg)
	wh := s.wallHist[scheme]
	if wh == nil {
		wh = obs.NewHistogram(wallBuckets)
		s.wallHist[scheme] = wh
	}
	wh.Observe(wall.Seconds())
	vh := s.virtHist[scheme]
	if vh == nil {
		vh = obs.NewHistogram(virtBuckets)
		s.virtHist[scheme] = vh
	}
	vh.Observe(float64(virt))
}

// WritePrometheus renders the full exposition (text format 0.0.4):
// service counters, queue/drain gauges, per-scheme breaker states, the
// accumulated engine counters (every stats.CPU field, by reflection, so
// new counters appear automatically), per-component cycle totals, and
// per-scheme job latency histograms.
func (s *Server) WritePrometheus(w io.Writer) error {
	var b strings.Builder

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	m := s.Metrics()
	counter("atomemu_jobs_accepted_total", "Jobs admitted to the queue.", m.Accepted)
	counter("atomemu_jobs_shed_total", "Submissions rejected because the queue was full.", m.Shed)
	counter("atomemu_jobs_completed_total", "Jobs that finished successfully.", m.Completed)
	counter("atomemu_jobs_failed_total", "Jobs that ended in an error.", m.Failed)
	counter("atomemu_jobs_canceled_total", "Jobs canceled by deadline or drain.", m.Canceled)
	counter("atomemu_jobs_recovered_total", "Jobs that finished after a rollback restore.", m.Recovered)
	counter("atomemu_jobs_demoted_total", "Jobs routed to the portable fallback scheme.", m.Demoted)
	counter("atomemu_breaker_trips_total", "Circuit-breaker open transitions.", m.BreakerTrips)
	counter("atomemu_job_panics_total", "Host-side job panics contained by the worker.", m.Panics)

	// Durability exposition: always present so dashboards and smoke checks
	// can assert on the series; all zero on servers without a DataDir.
	counter("atomemu_journal_records_total", "Records appended to the job journal by this process.", m.JournalAppends)
	counter("atomemu_journal_fsyncs_total", "Journal fsyncs.", m.JournalFsyncs)
	counter("atomemu_journal_compactions_total", "Journal compactions (history collapsed to the live set).", m.JournalCompactions)
	counter("atomemu_journal_errors_total", "Journal append/sync failures (durability degraded, jobs proceed).", m.JournalErrors)
	counter("atomemu_journal_replayed_records_total", "Records recovered from the journal at the last startup.", m.JournalReplayed)
	counter("atomemu_journal_corrupt_records_total", "Corrupt journal records skipped at the last startup replay.", m.JournalCorrupt)
	counter("atomemu_ckpt_spill_total", "Checkpoint snapshots spilled to disk.", m.CkptSpills)
	counter("atomemu_ckpt_spill_bytes_total", "Bytes of encoded checkpoint snapshots spilled to disk.", m.CkptSpillBytes)
	counter("atomemu_ckpt_spill_errors_total", "Failed checkpoint spills.", m.CkptSpillErrors)
	counter("atomemu_ckpt_temps_swept_total", "Stale spill temp files removed at the last startup.", m.CkptTempsSwept)
	counter("atomemu_restart_jobs_resumed_total", "Jobs resumed from a durable checkpoint at the last startup.", m.RestartResumed)
	counter("atomemu_restart_jobs_requeued_total", "Jobs requeued from scratch at the last startup.", m.RestartRequeued)
	counter("atomemu_restart_jobs_terminal_total", "Terminal jobs re-registered for idempotent reads at the last startup.", m.RestartTerminal)
	gauge("atomemu_journal_segments", "Journal segment files on disk.")
	fmt.Fprintf(&b, "atomemu_journal_segments %d\n", m.JournalSegments)

	// Reuse exposition: the compile cache and the process-wide translation
	// store. Always present (zero when disabled) so dashboards and the
	// warmstart smoke check can assert on the series.
	counter("atomemu_compile_cache_hits_total", "Admissions served a cached compiled image.", m.CompileCacheHits)
	counter("atomemu_compile_cache_misses_total", "Admissions that compiled their source.", m.CompileCacheMisses)
	counter("atomemu_tbstore_hits_total", "Cross-job translation store lookups that returned a block.", m.TBStoreHits)
	counter("atomemu_tbstore_misses_total", "Cross-job translation store lookups that found nothing.", m.TBStoreMisses)
	counter("atomemu_tbstore_publishes_total", "Blocks published to the cross-job translation store.", m.TBStorePublishes)
	counter("atomemu_tbstore_evictions_total", "Translation store segments cleared by the size cap.", m.TBStoreEvictions)
	counter("atomemu_tbstore_invalidations_total", "Machines that stopped sharing after mutating their code span.", m.TBStoreInvalidations)
	gauge("atomemu_compile_cache_bytes", "Bytes of compiled images held by the compile cache.")
	fmt.Fprintf(&b, "atomemu_compile_cache_bytes %d\n", m.CompileCacheBytes)
	gauge("atomemu_tbstore_blocks", "Blocks cached in the cross-job translation store.")
	fmt.Fprintf(&b, "atomemu_tbstore_blocks %d\n", m.TBStoreBlocks)
	gauge("atomemu_tbstore_segments", "Translation universes (image and options) the store holds a segment for.")
	fmt.Fprintf(&b, "atomemu_tbstore_segments %d\n", m.TBStoreSegments)

	gauge("atomemu_queue_length", "Jobs waiting in the admission queue.")
	fmt.Fprintf(&b, "atomemu_queue_length %d\n", len(s.jobQueue()))
	gauge("atomemu_queue_capacity", "Admission queue depth limit.")
	fmt.Fprintf(&b, "atomemu_queue_capacity %d\n", s.opts.QueueDepth)
	gauge("atomemu_draining", "1 while the server is draining, else 0.")
	fmt.Fprintf(&b, "atomemu_draining %d\n", boolGauge(s.Draining()))
	gauge("atomemu_recovering", "1 while journal replay is still running, else 0.")
	fmt.Fprintf(&b, "atomemu_recovering %d\n", boolGauge(s.recovering.Load()))

	seq, waiters := s.completions.gauges()
	gauge("atomemu_completions_seq", "Sequence number of the newest event on the completion feed.")
	fmt.Fprintf(&b, "atomemu_completions_seq %d\n", seq)
	gauge("atomemu_completions_waiters", "Watchers currently blocked in a completion-feed long-poll.")
	fmt.Fprintf(&b, "atomemu_completions_waiters %d\n", waiters)

	gauge("atomemu_breaker_state", "Per-scheme breaker state: 0 closed, 1 open, 2 half-open.")
	for _, bs := range s.Breakers() {
		fmt.Fprintf(&b, "atomemu_breaker_state{scheme=%q} %d\n", bs.Scheme, breakerStateValue(bs.State))
	}
	gauge("atomemu_breaker_failures", "Consecutive scheme-implicating failures counted toward the threshold.")
	for _, bs := range s.Breakers() {
		fmt.Fprintf(&b, "atomemu_breaker_failures{scheme=%q} %d\n", bs.Scheme, bs.Failures)
	}

	s.aggMu.Lock()
	fields := s.engineAgg.Fields()
	cycles := s.engineAgg.Cycles
	schemes := make([]string, 0, len(s.wallHist))
	for sch := range s.wallHist {
		schemes = append(schemes, sch)
	}
	sort.Strings(schemes)
	type schemeHists struct {
		scheme     string
		wall, virt obs.HistSnapshot
	}
	hists := make([]schemeHists, 0, len(schemes))
	for _, sch := range schemes {
		hists = append(hists, schemeHists{sch, s.wallHist[sch].Snapshot(), s.virtHist[sch].Snapshot()})
	}
	s.aggMu.Unlock()

	// Engine counters, accumulated over every finished job's machine. The
	// field walk is reflection-driven (stats.CPU.Fields), so counters added
	// to the engine automatically reach the exposition.
	for _, f := range fields {
		counter("atomemu_engine_"+f.Name+"_total",
			"Engine counter "+f.Name+", summed over finished jobs.", f.Value)
	}
	fmt.Fprintf(&b, "# HELP atomemu_engine_cycles_total Virtual cycles by cost component, summed over finished jobs.\n# TYPE atomemu_engine_cycles_total counter\n")
	for comp := stats.Component(0); comp < stats.NumComponents; comp++ {
		fmt.Fprintf(&b, "atomemu_engine_cycles_total{component=%q} %d\n", comp.String(), cycles[comp])
	}

	writeHist := func(name, scheme string, h obs.HistSnapshot) {
		for i, bound := range h.Bounds {
			fmt.Fprintf(&b, "%s_bucket{scheme=%q,le=%q} %d\n", name, scheme, formatBound(bound), h.Buckets[i])
		}
		fmt.Fprintf(&b, "%s_bucket{scheme=%q,le=\"+Inf\"} %d\n", name, scheme, h.Buckets[len(h.Buckets)-1])
		fmt.Fprintf(&b, "%s_sum{scheme=%q} %s\n", name, scheme, formatFloat(h.Sum))
		fmt.Fprintf(&b, "%s_count{scheme=%q} %d\n", name, scheme, h.Count)
	}
	fmt.Fprintf(&b, "# HELP atomemu_job_wall_seconds Wall-clock job duration by effective scheme.\n# TYPE atomemu_job_wall_seconds histogram\n")
	for _, h := range hists {
		writeHist("atomemu_job_wall_seconds", h.scheme, h.wall)
	}
	fmt.Fprintf(&b, "# HELP atomemu_job_virtual_cycles Virtual-time job duration by effective scheme.\n# TYPE atomemu_job_virtual_cycles histogram\n")
	for _, h := range hists {
		writeHist("atomemu_job_virtual_cycles", h.scheme, h.virt)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

func boolGauge(v bool) int {
	if v {
		return 1
	}
	return 0
}

func breakerStateValue(state string) int {
	switch state {
	case "open":
		return 1
	case "half-open":
		return 2
	default:
		return 0
	}
}

// formatBound renders a bucket upper bound the way Prometheus clients do.
func formatBound(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.WritePrometheus(w); err != nil {
		s.opts.Logger.Printf("server: writing /metrics: %v", err)
	}
}
