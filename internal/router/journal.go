package router

import (
	"encoding/json"
	"fmt"
	"time"

	"atomemu/internal/durable"
	"atomemu/internal/server"
)

// The router journal reuses the workers' write-ahead format (package
// durable) with three record types:
//
//	submitted   Job, Key (client idempotency key), Request (worker wire
//	            JSON with the worker-side key already injected)
//	dispatched  Job, Worker, WorkerJob, Resumes
//	finished    Job, Status (final JobView JSON — router-terminal, so shed
//	            jobs are covered too)
//
// Appends happen OUTSIDE Router.mu: segment rotation invokes the compact
// source, which takes Router.mu, so appending under it would self-deadlock.
// The price is that a job's records may land out of order relative to
// records of other jobs racing their appends — replayFold is therefore
// order-insensitive per job and keyed by job id.

// initJournal replays any existing journal into the job table, then opens
// a fresh segment for this process's appends.
func (r *Router) initJournal() error {
	recs, rst, err := durable.Replay(r.opts.DataDir)
	if err != nil {
		return fmt.Errorf("router: replaying journal: %w", err)
	}
	r.replay = rst
	r.replayFold(recs)
	jour, err := durable.Open(durable.Options{
		Dir:           r.opts.DataDir,
		Sync:          r.opts.JournalSync,
		CompactSource: r.liveRecords,
	})
	if err != nil {
		return fmt.Errorf("router: opening journal: %w", err)
	}
	r.mu.Lock()
	r.jour = jour
	r.mu.Unlock()
	if err := jour.CompactNow(); err != nil {
		r.opts.Logger.Printf("router: startup compaction: %v", err)
	}
	if rst.Records > 0 || rst.CorruptRecords > 0 || rst.Truncated > 0 {
		r.opts.Logger.Printf("router: journal replay: %d records, %d corrupt, %d torn tails",
			rst.Records, rst.CorruptRecords, rst.Truncated)
	}
	return nil
}

// replayFold rebuilds the job table from journal records. Unfinished jobs
// that were dispatched stay dispatched (the worker's watch loop reconciles
// them at first contact: terminal → finalize, forgotten → failover);
// undispatched ones, and ones dispatched to a worker this router no longer
// fronts, re-enter the dispatch queue.
func (r *Router) replayFold(recs []durable.Record) {
	type acc struct {
		raw        json.RawMessage
		key        string
		worker     string
		workerJob  string
		resumes    int
		dispatched bool
		final      *JobView
		unixMS     int64
	}
	accs := make(map[string]*acc)
	get := func(id string) *acc {
		a := accs[id]
		if a == nil {
			a = &acc{}
			accs[id] = a
		}
		return a
	}
	for _, rec := range recs {
		if rec.Job == "" {
			continue
		}
		switch rec.Type {
		case durable.TypeSubmitted:
			a := get(rec.Job)
			a.raw = rec.Request
			a.key = rec.Key
			if a.unixMS == 0 {
				a.unixMS = rec.UnixMS
			}
		case durable.TypeDispatched:
			a := get(rec.Job)
			// Keep the dispatch with the highest resume count — the latest
			// hand-off wins whatever order the appends landed in.
			if !a.dispatched || rec.Resumes >= a.resumes {
				a.dispatched = true
				a.worker, a.workerJob, a.resumes = rec.Worker, rec.WorkerJob, rec.Resumes
			}
		case durable.TypeFinished:
			var v JobView
			if err := json.Unmarshal(rec.Status, &v); err == nil {
				get(rec.Job).final = &v
			}
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	var maxID uint64
	for id, a := range accs {
		var n uint64
		if _, err := fmt.Sscanf(id, "fab-%d", &n); err == nil && n > maxID {
			maxID = n
		}
		if a.final != nil {
			v := *a.final
			j := &job{
				id: id, tenant: v.Tenant, key: a.key, state: v.State,
				worker: v.Worker, workerJob: v.WorkerJob,
				resumes: v.Resumes, resumed: v.Resumed, errMsg: v.Error,
				final: v.Status, enqueuedAt: v.EnqueuedAt,
				dispatchedAt: v.DispatchedAt, finishedAt: v.FinishedAt,
			}
			if !j.state.terminal() { // damaged view; refuse to resurrect as live
				j.state = jobFailed
			}
			r.jobs[id] = j
			if a.key != "" {
				r.byKey[a.key] = id
			}
			continue
		}
		if len(a.raw) == 0 {
			continue // dispatched/finished fragment without its submission
		}
		var req server.JobRequest
		if err := json.Unmarshal(a.raw, &req); err != nil {
			r.opts.Logger.Printf("router: replay: dropping %s: bad request record: %v", id, err)
			continue
		}
		tname := req.Tenant
		if tname == "" {
			tname = "default"
		}
		j := &job{
			id: id, tenant: tname, key: a.key, wkey: req.IdempotencyKey, raw: a.raw,
			ckpts: req.Config.CheckpointEvery > 0, resumes: a.resumes,
		}
		j.hashKey = ringKey(req, a.key, id)
		j.enqueuedAt = time.UnixMilli(a.unixMS)
		if a.unixMS == 0 {
			j.enqueuedAt = time.Now()
		}
		j.lastEnqueue = time.Now()
		r.jobs[id] = j
		if a.key != "" {
			r.byKey[a.key] = id
		}
		t := r.tenantLocked(tname)
		t.live++
		if w := r.workers[a.worker]; a.dispatched && w != nil {
			j.state = jobDispatched
			j.worker, j.workerJob = a.worker, a.workerJob
			w.inflight[req.IdempotencyKey] = j
			t.inflight++
		} else {
			r.enqueueLocked(t, j)
		}
	}
	if maxID > r.nextID.Load() {
		r.nextID.Store(maxID)
	}
}

// liveRecords is the journal compaction source: the minimal record set
// that reproduces the current job table.
func (r *Router) liveRecords() []durable.Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]durable.Record, 0, len(r.jobs)*2)
	for _, j := range r.jobs {
		if j.state.terminal() {
			v := r.viewLocked(j)
			data, err := json.Marshal(v)
			if err != nil {
				continue
			}
			out = append(out, durable.Record{
				Type: durable.TypeFinished, Job: j.id, Key: j.key,
				Status: json.RawMessage(data), UnixMS: j.finishedAt.UnixMilli(),
			})
			continue
		}
		out = append(out, durable.Record{
			Type: durable.TypeSubmitted, Job: j.id, Key: j.key,
			Request: json.RawMessage(j.raw), UnixMS: j.enqueuedAt.UnixMilli(),
		})
		if j.state == jobDispatched {
			out = append(out, durable.Record{
				Type: durable.TypeDispatched, Job: j.id,
				Worker: j.worker, WorkerJob: j.workerJob, Resumes: j.resumes,
			})
		}
	}
	return out
}

// journalAppend appends one record, tolerating a disabled journal. Router
// durability is best-effort in the same sense as the worker's: an append
// failure degrades crash recovery, never the job in flight.
func (r *Router) journalAppend(rec durable.Record) {
	r.mu.Lock()
	jour := r.jour
	r.mu.Unlock()
	if jour == nil {
		return
	}
	if err := jour.Append(rec); err != nil {
		r.journalErrs.Add(1)
		r.opts.Logger.Printf("router: journal append (%s %s): %v", rec.Type, rec.Job, err)
	}
}

// JournalStats exposes the live journal's counters (zero without DataDir).
func (r *Router) JournalStats() durable.Stats {
	r.mu.Lock()
	jour := r.jour
	r.mu.Unlock()
	if jour == nil {
		return durable.Stats{}
	}
	return jour.Stats()
}
