package router

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"atomemu/internal/obs"
)

// WritePrometheus renders the router exposition (text format 0.0.4):
// fleet health per worker, failover and checkpoint-shipping counters, and
// per-tenant admission/fairness series. Series are prefixed
// atomemu_router_ so a scrape of router + workers never collides.
func (r *Router) WritePrometheus(w io.Writer) error {
	var b strings.Builder

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	counter("atomemu_router_dispatch_total", "Jobs handed to a worker.", r.dispatches.Load())
	counter("atomemu_router_dispatch_bounce_total", "Dispatches bounced by a full worker queue (429).", r.bounces.Load())
	counter("atomemu_router_dispatch_error_total", "Dispatch attempts that failed at transport or 5xx level.", r.dispatchErrs.Load())
	counter("atomemu_router_failover_redispatch_total", "In-flight jobs re-dispatched after their worker died.", r.failoverRedispatch.Load())
	counter("atomemu_router_failover_resumed_total", "Failover re-dispatches that resumed from a shipped checkpoint.", r.failoverResumed.Load())
	counter("atomemu_router_ckpt_fetch_total", "Checkpoint images fetched from workers.", r.ckptFetches.Load())
	counter("atomemu_router_ckpt_fetch_bytes_total", "Bytes of checkpoint images fetched from workers.", r.ckptFetchBytes.Load())
	counter("atomemu_router_jobs_completed_total", "Router jobs that finished done.", r.completed.Load())
	counter("atomemu_router_jobs_failed_total", "Router jobs that finished failed.", r.failed.Load())
	counter("atomemu_router_journal_errors_total", "Router journal append failures.", r.journalErrs.Load())
	counter("atomemu_router_watch_events_total", "Completion-feed events received from workers.", r.watchEvents.Load())
	fmt.Fprintf(&b, "# HELP atomemu_router_watch_resyncs_total Per-job reconciliations of a worker's in-flight jobs, by what (re)established its feed.\n# TYPE atomemu_router_watch_resyncs_total counter\n")
	for i, reason := range resyncReasonNames {
		fmt.Fprintf(&b, "atomemu_router_watch_resyncs_total{reason=%q} %d\n", reason, r.watchResyncs[i].Load())
	}

	gauge("atomemu_router_ring_workers", "Workers currently on the hash ring.")
	fmt.Fprintf(&b, "atomemu_router_ring_workers %d\n", r.ringSize())
	gauge("atomemu_router_draining", "1 while the router is draining, else 0.")
	d := 0
	if r.Draining() {
		d = 1
	}
	fmt.Fprintf(&b, "atomemu_router_draining %d\n", d)

	workers := r.Workers()
	gauge("atomemu_router_worker_health", "Worker health state: 0 healthy, 1 suspect, 2 down.")
	for _, wv := range workers {
		fmt.Fprintf(&b, "atomemu_router_worker_health{worker=%q} %d\n", wv.URL, healthValue(wv.State))
	}
	gauge("atomemu_router_worker_consec_failures", "Consecutive probe/dispatch/poll failures counted toward the down threshold.")
	for _, wv := range workers {
		fmt.Fprintf(&b, "atomemu_router_worker_consec_failures{worker=%q} %d\n", wv.URL, wv.ConsecFails)
	}
	gauge("atomemu_router_worker_queued", "Worker-reported queue length at the last successful probe.")
	for _, wv := range workers {
		fmt.Fprintf(&b, "atomemu_router_worker_queued{worker=%q} %d\n", wv.URL, wv.Queued)
	}
	gauge("atomemu_router_watch_live", "1 while the worker's completion feed answered its last request, else 0.")
	for _, wv := range workers {
		live := 0
		if wv.WatchLive {
			live = 1
		}
		fmt.Fprintf(&b, "atomemu_router_watch_live{worker=%q} %d\n", wv.URL, live)
	}
	gauge("atomemu_router_worker_warmth", "Worker reuse score (shared TB store blocks) at the last successful probe.")
	for _, wv := range workers {
		fmt.Fprintf(&b, "atomemu_router_worker_warmth{worker=%q} %d\n", wv.URL, wv.Warmth)
	}
	fmt.Fprintf(&b, "# HELP atomemu_router_worker_dispatched_total Jobs this router dispatched to the worker.\n# TYPE atomemu_router_worker_dispatched_total counter\n")
	for _, wv := range workers {
		fmt.Fprintf(&b, "atomemu_router_worker_dispatched_total{worker=%q} %d\n", wv.URL, wv.Dispatched)
	}
	fmt.Fprintf(&b, "# HELP atomemu_router_worker_downs_total Down transitions (ring evictions) of the worker.\n# TYPE atomemu_router_worker_downs_total counter\n")
	for _, wv := range workers {
		fmt.Fprintf(&b, "atomemu_router_worker_downs_total{worker=%q} %d\n", wv.URL, wv.Downs)
	}
	fmt.Fprintf(&b, "# HELP atomemu_router_worker_rejoins_total Ring rejoins of the worker after recovery.\n# TYPE atomemu_router_worker_rejoins_total counter\n")
	for _, wv := range workers {
		fmt.Fprintf(&b, "atomemu_router_worker_rejoins_total{worker=%q} %d\n", wv.URL, wv.Rejoins)
	}

	tenants := r.Tenants()
	fmt.Fprintf(&b, "# HELP atomemu_router_tenant_admitted_total Jobs admitted per tenant.\n# TYPE atomemu_router_tenant_admitted_total counter\n")
	for _, tv := range tenants {
		fmt.Fprintf(&b, "atomemu_router_tenant_admitted_total{tenant=%q} %d\n", tv.Name, tv.Admitted)
	}
	fmt.Fprintf(&b, "# HELP atomemu_router_tenant_shed_total Submissions shed per tenant, by reason.\n# TYPE atomemu_router_tenant_shed_total counter\n")
	for _, tv := range tenants {
		fmt.Fprintf(&b, "atomemu_router_tenant_shed_total{tenant=%q,reason=\"quota\"} %d\n", tv.Name, tv.ShedQuota)
		fmt.Fprintf(&b, "atomemu_router_tenant_shed_total{tenant=%q,reason=\"route\"} %d\n", tv.Name, tv.ShedRoute)
	}
	fmt.Fprintf(&b, "# HELP atomemu_router_tenant_completed_total Jobs finished done per tenant.\n# TYPE atomemu_router_tenant_completed_total counter\n")
	for _, tv := range tenants {
		fmt.Fprintf(&b, "atomemu_router_tenant_completed_total{tenant=%q} %d\n", tv.Name, tv.Completed)
	}
	gauge("atomemu_router_tenant_live", "Live (admitted, non-terminal) jobs per tenant.")
	for _, tv := range tenants {
		fmt.Fprintf(&b, "atomemu_router_tenant_live{tenant=%q} %d\n", tv.Name, tv.Live)
	}
	gauge("atomemu_router_tenant_queued", "Jobs waiting for dispatch per tenant.")
	for _, tv := range tenants {
		fmt.Fprintf(&b, "atomemu_router_tenant_queued{tenant=%q} %d\n", tv.Name, tv.Queued)
	}

	// Per-tenant dispatch-wait histograms (admission→hand-off latency): the
	// series the tenant-fairness test bounds.
	r.mu.Lock()
	type th struct {
		name string
		h    obs.HistSnapshot
	}
	hists := make([]th, 0, len(r.tenants))
	for name, t := range r.tenants {
		hists = append(hists, th{name, t.waitHist.Snapshot()})
	}
	r.mu.Unlock()
	sort.Slice(hists, func(i, k int) bool { return hists[i].name < hists[k].name })
	// labels is "" or `key="value",` — the le label follows it.
	hist := func(name, labels string, h obs.HistSnapshot) {
		for i, bound := range h.Bounds {
			fmt.Fprintf(&b, "%s_bucket{%sle=%q} %d\n", name, labels, strconv.FormatFloat(bound, 'g', -1, 64), h.Buckets[i])
		}
		fmt.Fprintf(&b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, h.Buckets[len(h.Buckets)-1])
		series := ""
		if labels != "" {
			series = "{" + strings.TrimSuffix(labels, ",") + "}"
		}
		fmt.Fprintf(&b, "%s_sum%s %s\n", name, series, strconv.FormatFloat(h.Sum, 'g', -1, 64))
		fmt.Fprintf(&b, "%s_count%s %d\n", name, series, h.Count)
	}
	fmt.Fprintf(&b, "# HELP atomemu_router_dispatch_wait_seconds Enqueue-to-dispatch wait per tenant.\n# TYPE atomemu_router_dispatch_wait_seconds histogram\n")
	for _, t := range hists {
		hist("atomemu_router_dispatch_wait_seconds", fmt.Sprintf("tenant=%q,", t.name), t.h)
	}
	// The production twin of the bench ledger's router.finish_lag_ms.
	fmt.Fprintf(&b, "# HELP atomemu_router_finish_lag_seconds Worker-side finish to router finalize, per job.\n# TYPE atomemu_router_finish_lag_seconds histogram\n")
	hist("atomemu_router_finish_lag_seconds", "", r.finishLag.Snapshot())

	js := r.JournalStats()
	counter("atomemu_router_journal_records_total", "Records appended to the router journal by this process.", js.Appends)
	counter("atomemu_router_journal_compactions_total", "Router journal compactions.", js.Compactions)
	counter("atomemu_router_journal_replayed_records_total", "Records recovered from the router journal at the last startup.", uint64(r.replay.Records))

	_, err := io.WriteString(w, b.String())
	return err
}

func healthValue(state string) int {
	switch state {
	case "suspect":
		return 1
	case "down":
		return 2
	default:
		return 0
	}
}

// handleMetrics serves GET /metrics.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := r.WritePrometheus(w); err != nil {
		r.opts.Logger.Printf("router: writing /metrics: %v", err)
	}
}
