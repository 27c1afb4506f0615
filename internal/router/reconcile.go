package router

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"atomemu/internal/durable"
	"atomemu/internal/server"
)

// dispatchResp is the decoded outcome of one dispatch POST.
type dispatchResp struct {
	code    int
	id      string          // worker-side job id on 202
	state   server.JobState // worker-side state on 202 (terminal on an idempotent hit)
	resumed bool            // worker adopted the shipped snapshot
	errMsg  string          // body text on non-202
}

// postDispatch performs the worker hand-off: POST /jobs with the original
// wire request, or POST /jobs/{routerID}/resume shipping the cached ACKP
// image when this is a checkpoint-carrying failover re-dispatch. The
// router id names the resume so the worker's synthetic idempotency key
// ("resume:<routerID>") stays stable across re-ships.
func (r *Router) postDispatch(url, routerID string, raw []byte, useCkpt bool, ckpt []byte, resumes int) (*dispatchResp, error) {
	var (
		target string
		body   []byte
		err    error
	)
	if useCkpt {
		// The record keeps the request in wire form only; the rare failover
		// that ships a checkpoint pays for decoding it.
		var req server.JobRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, fmt.Errorf("decoding request for resume: %w", err)
		}
		target = url + "/jobs/" + routerID + "/resume"
		body, err = json.Marshal(server.ResumeRequest{
			Request:     req,
			SnapshotB64: base64.StdEncoding.EncodeToString(ckpt),
			Resumes:     resumes,
		})
		if err != nil {
			return nil, fmt.Errorf("encoding resume: %w", err)
		}
	} else {
		target = url + "/jobs"
		body = raw
	}
	resp, err := r.client.Post(target, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	out := &dispatchResp{code: resp.StatusCode}
	if resp.StatusCode == http.StatusAccepted {
		var ack struct {
			ID      string          `json:"id"`
			State   server.JobState `json:"state"`
			Resumed bool            `json:"resumed"`
		}
		if err := json.Unmarshal(data, &ack); err != nil || ack.ID == "" {
			return nil, fmt.Errorf("bad accept body %q", string(data))
		}
		out.id, out.state, out.resumed = ack.ID, ack.State, ack.Resumed
		return out, nil
	}
	var eb struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(data, &eb)
	out.errMsg = eb.Error
	if out.errMsg == "" {
		out.errMsg = string(data)
	}
	return out, nil
}

// fetchStatus GETs one worker-side job status. A non-200/404 code is
// reported as an error (it implicates the worker, not the job). An answer
// about a job admitted under another key is a 404: worker job ids restart
// with an in-memory worker process, so after a restart the id the router
// remembers may name somebody else's job.
func (r *Router) fetchStatus(url, workerJob, key string) (*server.JobStatus, int, error) {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, url+"/jobs/"+workerJob, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	switch {
	case resp.StatusCode == http.StatusOK && resp.Header.Get(server.KeyHeader) != key:
		return nil, http.StatusNotFound, nil
	case resp.StatusCode == http.StatusOK:
		var st server.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, 0, fmt.Errorf("bad status body: %w", err)
		}
		return &st, http.StatusOK, nil
	case resp.StatusCode == http.StatusNotFound:
		return nil, http.StatusNotFound, nil
	default:
		return nil, 0, fmt.Errorf("status: HTTP %d", resp.StatusCode)
	}
}

// reconcile asks the worker about one dispatched job and acts on the
// answer: a terminal status finalizes the router job, and a worker that
// has forgotten the job — an in-memory restart — fails it over at once.
// It is the "list" half of list+watch (resync runs it over a worker's
// in-flight jobs when its feed is re-established) and the fallback for
// the windows the feed cannot cover. The status is returned for callers
// that proxy it; the error is a transport-level one that implicates the
// worker.
func (r *Router) reconcile(j *job, url, workerJob string) (*server.JobStatus, error) {
	st, code, err := r.fetchStatus(url, workerJob, j.wkey)
	if err != nil {
		return nil, err
	}
	switch {
	case code == http.StatusNotFound:
		r.mu.Lock()
		if j.state == jobDispatched && j.worker == url && j.workerJob == workerJob {
			r.failoverLocked(j, fmt.Sprintf("worker %s no longer knows job %s", url, workerJob))
		}
		r.mu.Unlock()
	case st.State.Terminal():
		r.finalize(j, url, st)
	}
	return st, nil
}

// fetchCheckpoint pulls the job's latest live checkpoint image and caches
// it as the failover resume point. A 404 (not running / no checkpoint yet)
// or an image of somebody else's job (see fetchStatus) is a non-event. A
// transport error is returned so the caller can skip the worker's other
// jobs; counting it is left to the feed and the probes.
func (r *Router) fetchCheckpoint(j *job, url, workerJob string) error {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, url+"/jobs/"+workerJob+"/checkpoint", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(server.KeyHeader) != j.wkey {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	vt, _ := strconv.ParseUint(resp.Header.Get("X-Atomemu-Virtual-Time"), 10, 64)
	r.mu.Lock()
	if j.state == jobDispatched && j.worker == url && vt >= j.ckptVT {
		j.ckpt = data
		j.ckptVT = vt
	}
	r.mu.Unlock()
	r.ckptFetches.Add(1)
	r.ckptFetchBytes.Add(uint64(len(data)))
	return nil
}

// failoverLocked re-queues a dispatched job whose worker is gone, arming
// the cached checkpoint (if any) for a resume-style re-dispatch. r.mu held.
func (r *Router) failoverLocked(j *job, why string) {
	j.resumes++
	delete(r.workers[j.worker].inflight, j.wkey)
	j.worker, j.workerJob = "", ""
	j.rounds = 0
	j.resumed = false
	j.useCkpt = len(j.ckpt) > 0
	t := r.tenants[j.tenant]
	t.inflight--
	r.failoverRedispatch.Add(1)
	if j.useCkpt {
		r.opts.Logger.Printf("router: failing over %s (%s), shipping checkpoint at vt=%d", j.id, why, j.ckptVT)
	} else {
		r.opts.Logger.Printf("router: failing over %s (%s), no checkpoint cached, restarting", j.id, why)
	}
	r.enqueueLocked(t, j)
}

// failoverWorkerLocked fails over every job in flight on a worker that
// just went down. r.mu held (called from the health machine's down
// transition).
func (r *Router) failoverWorkerLocked(url string) {
	for _, j := range r.workers[url].inflight {
		r.failoverLocked(j, "worker down")
	}
}

// finalize records a worker-terminal status as the job's final state. It
// is idempotent — the feed delivers at least once, and a resync or a
// proxied status read may race it to the same job — so only the first
// caller moves the counters and journals the finished record.
func (r *Router) finalize(j *job, url string, st *server.JobStatus) {
	now := time.Now()
	r.mu.Lock()
	if j.state != jobDispatched || j.worker != url {
		r.mu.Unlock()
		return
	}
	delete(r.workers[url].inflight, j.wkey)
	if st.State == server.StateDone {
		j.state = jobDone
	} else {
		j.state = jobFailed
		j.errMsg = st.Error
	}
	j.final = st
	j.finishedAt = now
	j.release()
	t := r.tenants[j.tenant]
	t.inflight--
	t.live--
	t.noteFinish(now)
	if j.state == jobDone {
		t.completed++
	} else {
		t.failed++
	}
	r.mu.Unlock()
	if j.state == jobDone {
		r.completed.Add(1)
	} else {
		r.failed.Add(1)
	}
	if !st.FinishedAt.IsZero() {
		// Clamped: across hosts the worker's clock may run ahead of ours.
		r.finishLag.Observe(max(now.Sub(st.FinishedAt), 0).Seconds())
	}
	r.journalFinish(j)
}

// JobView is the router's wire representation of one job.
type JobView struct {
	ID        string   `json:"id"`
	Tenant    string   `json:"tenant"`
	State     jobState `json:"state"`
	Worker    string   `json:"worker,omitempty"`
	WorkerJob string   `json:"worker_job,omitempty"`
	// Resumes counts failover re-dispatches; Resumed reports whether the
	// current (or final) dispatch continued from a shipped checkpoint.
	Resumes int  `json:"resumes,omitempty"`
	Resumed bool `json:"resumed,omitempty"`
	// CkptVirtualTime is the virtual time of the latest cached checkpoint
	// image (the failover resume point).
	CkptVirtualTime uint64 `json:"ckpt_virtual_time,omitempty"`
	Error           string `json:"error,omitempty"`

	EnqueuedAt   time.Time `json:"enqueued_at"`
	DispatchedAt time.Time `json:"dispatched_at,omitempty"`
	FinishedAt   time.Time `json:"finished_at,omitempty"`

	// Status is the worker's JobStatus: final for terminal jobs, a live
	// proxy snapshot for dispatched ones (absent when the worker cannot be
	// reached).
	Status *server.JobStatus `json:"status,omitempty"`
}

func (r *Router) viewLocked(j *job) JobView {
	return JobView{
		ID: j.id, Tenant: j.tenant, State: j.state,
		Worker: j.worker, WorkerJob: j.workerJob,
		Resumes: j.resumes, Resumed: j.resumed,
		CkptVirtualTime: j.ckptVT, Error: j.errMsg,
		EnqueuedAt: j.enqueuedAt, DispatchedAt: j.dispatchedAt,
		FinishedAt: j.finishedAt, Status: j.final,
	}
}

// Status returns one job's view. For a dispatched job the worker's live
// status is proxied in best-effort — and acted on: a terminal answer
// finalizes the job, so the caller gets the final view, not "dispatched"
// around a finished status.
func (r *Router) Status(id string) (JobView, bool) {
	r.mu.Lock()
	j := r.jobs[id]
	if j == nil {
		r.mu.Unlock()
		return JobView{}, false
	}
	v := r.viewLocked(j)
	var url, workerJob string
	if j.state == jobDispatched {
		url, workerJob = j.worker, j.workerJob
	}
	r.mu.Unlock()
	if url != "" {
		st, err := r.reconcile(j, url, workerJob)
		if err != nil {
			return v, true
		}
		r.mu.Lock()
		v = r.viewLocked(j)
		r.mu.Unlock()
		if v.Status == nil {
			v.Status = st
		}
	}
	return v, true
}

// Jobs lists every job's view (no live proxying), newest id last.
func (r *Router) Jobs() []JobView {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobView, 0, len(r.jobs))
	for _, j := range r.jobs {
		out = append(out, r.viewLocked(j))
	}
	sort.Slice(out, func(i, k int) bool { return jobIDLess(out[i].ID, out[k].ID) })
	return out
}

// jobIDLess orders "fab-N" ids numerically.
func jobIDLess(a, b string) bool {
	pa, _ := strconv.Atoi(strings.TrimPrefix(a, "fab-"))
	pb, _ := strconv.Atoi(strings.TrimPrefix(b, "fab-"))
	if pa != pb {
		return pa < pb
	}
	return a < b
}

// journalFinish appends the job's terminal view to the router journal.
func (r *Router) journalFinish(j *job) {
	r.mu.Lock()
	v := r.viewLocked(j)
	r.mu.Unlock()
	data, err := json.Marshal(v)
	if err != nil {
		r.opts.Logger.Printf("router: encoding final view of %s: %v", j.id, err)
		return
	}
	r.journalAppend(durable.Record{
		Type: durable.TypeFinished, Job: j.id, Key: j.key,
		Status: json.RawMessage(data), UnixMS: v.FinishedAt.UnixMilli(),
	})
}
