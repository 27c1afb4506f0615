package server

import (
	"io"
	"sort"
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
	var p obs.PromWriter

	m := s.Metrics()
	p.Counter("atomemu_jobs_accepted_total", "Jobs admitted to the queue.", m.Accepted)
	p.Counter("atomemu_jobs_shed_total", "Submissions rejected because the queue was full.", m.Shed)
	p.Counter("atomemu_jobs_completed_total", "Jobs that finished successfully.", m.Completed)
	p.Counter("atomemu_jobs_failed_total", "Jobs that ended in an error.", m.Failed)
	p.Counter("atomemu_jobs_canceled_total", "Jobs canceled by deadline or drain.", m.Canceled)
	p.Counter("atomemu_jobs_recovered_total", "Jobs that finished after a rollback restore.", m.Recovered)
	p.Counter("atomemu_jobs_demoted_total", "Jobs routed to the portable fallback scheme.", m.Demoted)
	p.Counter("atomemu_breaker_trips_total", "Circuit-breaker open transitions.", m.BreakerTrips)
	p.Counter("atomemu_job_panics_total", "Host-side job panics contained by the worker.", m.Panics)

	// Durability exposition: always present so dashboards and smoke checks
	// can assert on the series; all zero on servers without a DataDir.
	p.Counter("atomemu_journal_records_total", "Records appended to the job journal by this process.", m.JournalAppends)
	p.Counter("atomemu_journal_fsyncs_total", "Journal fsyncs.", m.JournalFsyncs)
	p.Counter("atomemu_journal_compactions_total", "Journal compactions (history collapsed to the live set).", m.JournalCompactions)
	p.Counter("atomemu_journal_errors_total", "Journal append/sync failures (durability degraded, jobs proceed).", m.JournalErrors)
	p.Counter("atomemu_journal_replayed_records_total", "Records recovered from the journal at the last startup.", m.JournalReplayed)
	p.Counter("atomemu_journal_corrupt_records_total", "Corrupt journal records skipped at the last startup replay.", m.JournalCorrupt)
	p.Counter("atomemu_ckpt_spill_total", "Checkpoint snapshots spilled to disk.", m.CkptSpills)
	p.Counter("atomemu_ckpt_spill_bytes_total", "Bytes of encoded checkpoint snapshots spilled to disk.", m.CkptSpillBytes)
	p.Counter("atomemu_ckpt_spill_errors_total", "Failed checkpoint spills.", m.CkptSpillErrors)
	p.Counter("atomemu_ckpt_temps_swept_total", "Stale spill temp files removed at the last startup.", m.CkptTempsSwept)
	p.Counter("atomemu_restart_jobs_resumed_total", "Jobs resumed from a durable checkpoint at the last startup.", m.RestartResumed)
	p.Counter("atomemu_restart_jobs_requeued_total", "Jobs requeued from scratch at the last startup.", m.RestartRequeued)
	p.Counter("atomemu_restart_jobs_terminal_total", "Terminal jobs re-registered for idempotent reads at the last startup.", m.RestartTerminal)
	p.Gauge("atomemu_journal_segments", "Journal segment files on disk.", m.JournalSegments)

	// Reuse exposition: the compile cache and the process-wide translation
	// store. Always present (zero when disabled) so dashboards and the
	// warmstart smoke check can assert on the series.
	p.Counter("atomemu_compile_cache_hits_total", "Admissions served a cached compiled image.", m.CompileCacheHits)
	p.Counter("atomemu_compile_cache_misses_total", "Admissions that compiled their source.", m.CompileCacheMisses)
	p.Counter("atomemu_tbstore_hits_total", "Cross-job translation store lookups that returned a block.", m.TBStoreHits)
	p.Counter("atomemu_tbstore_misses_total", "Cross-job translation store lookups that found nothing.", m.TBStoreMisses)
	p.Counter("atomemu_tbstore_publishes_total", "Blocks published to the cross-job translation store.", m.TBStorePublishes)
	p.Counter("atomemu_tbstore_evictions_total", "Translation store segments cleared by the size cap.", m.TBStoreEvictions)
	p.Counter("atomemu_tbstore_invalidations_total", "Machines that stopped sharing after mutating their code span.", m.TBStoreInvalidations)
	p.Gauge("atomemu_compile_cache_bytes", "Bytes of compiled images held by the compile cache.", uint64(m.CompileCacheBytes))
	p.Gauge("atomemu_tbstore_blocks", "Blocks cached in the cross-job translation store.", uint64(m.TBStoreBlocks))
	p.Gauge("atomemu_tbstore_segments", "Translation universes (image and options) the store holds a segment for.", uint64(m.TBStoreSegments))

	p.Gauge("atomemu_queue_length", "Jobs waiting in the admission queue.", uint64(len(s.jobQueue())))
	p.Gauge("atomemu_queue_capacity", "Admission queue depth limit.", uint64(s.opts.QueueDepth))
	p.Gauge("atomemu_draining", "1 while the server is draining, else 0.", obs.Flag(s.Draining()))
	p.Gauge("atomemu_recovering", "1 while journal replay is still running, else 0.", obs.Flag(s.recovering.Load()))

	seq, waiters := s.completions.gauges()
	p.Gauge("atomemu_completions_seq", "Sequence number of the newest event on the completion feed.", seq)
	p.Gauge("atomemu_completions_waiters", "Watchers currently blocked in a completion-feed long-poll.", uint64(waiters))

	breakers := s.Breakers()
	p.Family("atomemu_breaker_state", "gauge", "Per-scheme breaker state: 0 closed, 1 open, 2 half-open.")
	for _, bs := range breakers {
		p.Sample("atomemu_breaker_state", breakerStateValue(bs.State), "scheme", bs.Scheme)
	}
	p.Family("atomemu_breaker_failures", "gauge", "Consecutive scheme-implicating failures counted toward the threshold.")
	for _, bs := range breakers {
		p.Sample("atomemu_breaker_failures", uint64(bs.Failures), "scheme", bs.Scheme)
	}

	s.aggMu.Lock()
	fields := s.engineAgg.Fields()
	cycles := s.engineAgg.Cycles
	schemes := make([]string, 0, len(s.wallHist))
	for sch := range s.wallHist {
		schemes = append(schemes, sch)
	}
	sort.Strings(schemes)
	wall := make([]obs.HistSnapshot, len(schemes))
	virt := make([]obs.HistSnapshot, len(schemes))
	for i, sch := range schemes {
		wall[i], virt[i] = s.wallHist[sch].Snapshot(), s.virtHist[sch].Snapshot()
	}
	s.aggMu.Unlock()

	// Engine counters, accumulated over every finished job's machine. The
	// field walk is reflection-driven (stats.CPU.Fields), so counters added
	// to the engine automatically reach the exposition.
	for _, f := range fields {
		p.Counter("atomemu_engine_"+f.Name+"_total",
			"Engine counter "+f.Name+", summed over finished jobs.", f.Value)
	}
	p.Family("atomemu_engine_cycles_total", "counter", "Virtual cycles by cost component, summed over finished jobs.")
	for comp := stats.Component(0); comp < stats.NumComponents; comp++ {
		p.Sample("atomemu_engine_cycles_total", cycles[comp], "component", comp.String())
	}

	p.Family("atomemu_job_wall_seconds", "histogram", "Wall-clock job duration by effective scheme.")
	for i, sch := range schemes {
		p.Histogram("atomemu_job_wall_seconds", wall[i], "scheme", sch)
	}
	p.Family("atomemu_job_virtual_cycles", "histogram", "Virtual-time job duration by effective scheme.")
	for i, sch := range schemes {
		p.Histogram("atomemu_job_virtual_cycles", virt[i], "scheme", sch)
	}

	_, err := p.WriteTo(w)
	return err
}

func breakerStateValue(state string) uint64 {
	switch state {
	case "open":
		return 1
	case "half-open":
		return 2
	default:
		return 0
	}
}
