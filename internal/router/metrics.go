package router

import (
	"io"

	"atomemu/internal/obs"
)

// WritePrometheus renders the router exposition (text format 0.0.4):
// fleet health per worker, failover and checkpoint-shipping counters, and
// per-tenant admission/fairness series. Series are prefixed
// atomemu_router_ so a scrape of router + workers never collides.
func (r *Router) WritePrometheus(w io.Writer) error {
	var p obs.PromWriter

	p.Counter("atomemu_router_dispatch_total", "Jobs handed to a worker.", r.dispatches.Load())
	p.Counter("atomemu_router_dispatch_bounce_total", "Dispatches bounced by a full worker queue (429).", r.bounces.Load())
	p.Counter("atomemu_router_dispatch_error_total", "Dispatch attempts that failed at transport or 5xx level.", r.dispatchErrs.Load())
	p.Counter("atomemu_router_failover_redispatch_total", "In-flight jobs re-dispatched after their worker died.", r.failoverRedispatch.Load())
	p.Counter("atomemu_router_failover_resumed_total", "Failover re-dispatches that resumed from a shipped checkpoint.", r.failoverResumed.Load())
	p.Counter("atomemu_router_ckpt_fetch_total", "Checkpoint images fetched from workers.", r.ckptFetches.Load())
	p.Counter("atomemu_router_ckpt_fetch_bytes_total", "Bytes of checkpoint images fetched from workers.", r.ckptFetchBytes.Load())
	p.Counter("atomemu_router_jobs_completed_total", "Router jobs that finished done.", r.completed.Load())
	p.Counter("atomemu_router_jobs_failed_total", "Router jobs that finished failed.", r.failed.Load())
	p.Counter("atomemu_router_journal_errors_total", "Router journal append failures.", r.journalErrs.Load())
	p.Counter("atomemu_router_watch_events_total", "Completion-feed events received from workers.", r.watchEvents.Load())
	p.Family("atomemu_router_watch_resyncs_total", "counter", "Per-job reconciliations of a worker's in-flight jobs, by what (re)established its feed.")
	for i, reason := range resyncReasonNames {
		p.Sample("atomemu_router_watch_resyncs_total", r.watchResyncs[i].Load(), "reason", reason)
	}

	p.Gauge("atomemu_router_ring_workers", "Workers currently on the hash ring.", uint64(r.ringSize()))
	p.Gauge("atomemu_router_draining", "1 while the router is draining, else 0.", obs.Flag(r.Draining()))

	workers := r.Workers()
	for _, f := range workerFamilies {
		p.Family(f.name, f.typ, f.help)
		for _, wv := range workers {
			p.Sample(f.name, f.value(wv), "worker", wv.URL)
		}
	}

	tenants := r.Tenants()
	p.Family("atomemu_router_tenant_admitted_total", "counter", "Jobs admitted per tenant.")
	for _, tv := range tenants {
		p.Sample("atomemu_router_tenant_admitted_total", tv.Admitted, "tenant", tv.Name)
	}
	p.Family("atomemu_router_tenant_shed_total", "counter", "Submissions shed per tenant, by reason.")
	for _, tv := range tenants {
		p.Sample("atomemu_router_tenant_shed_total", tv.ShedQuota, "tenant", tv.Name, "reason", "quota")
		p.Sample("atomemu_router_tenant_shed_total", tv.ShedRoute, "tenant", tv.Name, "reason", "route")
	}
	p.Family("atomemu_router_tenant_completed_total", "counter", "Jobs finished done per tenant.")
	for _, tv := range tenants {
		p.Sample("atomemu_router_tenant_completed_total", tv.Completed, "tenant", tv.Name)
	}
	p.Family("atomemu_router_tenant_live", "gauge", "Live (admitted, non-terminal) jobs per tenant.")
	for _, tv := range tenants {
		p.Sample("atomemu_router_tenant_live", uint64(tv.Live), "tenant", tv.Name)
	}
	p.Family("atomemu_router_tenant_queued", "gauge", "Jobs waiting for dispatch per tenant.")
	for _, tv := range tenants {
		p.Sample("atomemu_router_tenant_queued", uint64(tv.Queued), "tenant", tv.Name)
	}

	// Per-tenant dispatch-wait histograms (admission→hand-off latency): the
	// series the tenant-fairness test bounds.
	p.Family("atomemu_router_dispatch_wait_seconds", "histogram", "Enqueue-to-dispatch wait per tenant.")
	for _, tv := range tenants {
		p.Histogram("atomemu_router_dispatch_wait_seconds", tv.waitHist, "tenant", tv.Name)
	}
	// The production twin of the bench ledger's router.finish_lag_ms.
	p.Family("atomemu_router_finish_lag_seconds", "histogram", "Worker-side finish to router finalize, per job.")
	p.Histogram("atomemu_router_finish_lag_seconds", r.finishLag.Snapshot())

	js := r.JournalStats()
	p.Counter("atomemu_router_journal_records_total", "Records appended to the router journal by this process.", js.Appends)
	p.Counter("atomemu_router_journal_compactions_total", "Router journal compactions.", js.Compactions)
	p.Counter("atomemu_router_journal_replayed_records_total", "Records recovered from the router journal at the last startup.", uint64(r.replay.Records))

	_, err := p.WriteTo(w)
	return err
}

// workerFamilies are the per-worker series, one family each, every worker
// a sample of every family.
var workerFamilies = []struct {
	name, typ, help string
	value           func(WorkerView) uint64
}{
	{"atomemu_router_worker_health", "gauge", "Worker health state: 0 healthy, 1 suspect, 2 down.",
		func(wv WorkerView) uint64 { return healthValue(wv.State) }},
	{"atomemu_router_worker_consec_failures", "gauge", "Consecutive probe/dispatch/poll failures counted toward the down threshold.",
		func(wv WorkerView) uint64 { return uint64(wv.ConsecFails) }},
	{"atomemu_router_worker_queued", "gauge", "Worker-reported queue length at the last successful probe.",
		func(wv WorkerView) uint64 { return uint64(wv.Queued) }},
	{"atomemu_router_watch_live", "gauge", "1 while the worker's completion feed answered its last request, else 0.",
		func(wv WorkerView) uint64 { return obs.Flag(wv.WatchLive) }},
	{"atomemu_router_worker_warmth", "gauge", "Worker reuse score (shared TB store blocks) at the last successful probe.",
		func(wv WorkerView) uint64 { return uint64(wv.Warmth) }},
	{"atomemu_router_worker_dispatched_total", "counter", "Jobs this router dispatched to the worker.",
		func(wv WorkerView) uint64 { return wv.Dispatched }},
	{"atomemu_router_worker_downs_total", "counter", "Down transitions (ring evictions) of the worker.",
		func(wv WorkerView) uint64 { return wv.Downs }},
	{"atomemu_router_worker_rejoins_total", "counter", "Ring rejoins of the worker after recovery.",
		func(wv WorkerView) uint64 { return wv.Rejoins }},
}

func healthValue(state string) uint64 {
	switch state {
	case "suspect":
		return 1
	case "down":
		return 2
	default:
		return 0
	}
}
