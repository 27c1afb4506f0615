package server

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"atomemu/internal/checkpoint"
)

// This file is the worker's half of router failover: checkpoint hand-off.
// GET /jobs/{id}/checkpoint exports a running job's latest in-memory
// checkpoint as an ACKP image, which the router caches; when this worker
// later dies mid-job, the router ships that image to a surviving worker
// via POST /jobs/{id}/resume, which admits a job that resumes from the
// snapshot instead of starting from the program entry. The resume budget
// is the restart-resume budget (Options.MaxRestartResumes): a job that has
// already burned it runs again from scratch — progress is lost, but the
// exactly-once contract (one id, one result per idempotency key) holds.

// ResumeRequest is the wire form of POST /jobs/{id}/resume.
type ResumeRequest struct {
	// Request is the job's original submission; admission policy applies to
	// it exactly as it would to POST /jobs (same validation, same
	// idempotency).
	Request JobRequest `json:"request"`
	// SnapshotB64 is a base64 ACKP checkpoint image to resume from. Empty
	// means "re-dispatch from scratch" (the shipper had no checkpoint).
	SnapshotB64 string `json:"snapshot_b64,omitempty"`
	// Resumes is how many resume attempts this job has consumed, including
	// this one. Beyond MaxRestartResumes the snapshot is ignored and the
	// job runs from scratch, mirroring restart recovery.
	Resumes int `json:"resumes,omitempty"`
}

// SubmitResume admits a job that continues from a shipped checkpoint.
// alias names the job on the shipping side (the router's job id); it backs
// the idempotency key when the request carries none, so a re-shipped
// resume cannot double-run. The returned bool reports whether the snapshot
// was actually adopted (false: from scratch — over budget or no snapshot).
func (s *Server) SubmitResume(alias string, rr ResumeRequest) (string, bool, error) {
	var snap *checkpoint.Snapshot
	if rr.SnapshotB64 != "" {
		raw, err := base64.StdEncoding.DecodeString(rr.SnapshotB64)
		if err != nil {
			return "", false, &SubmitError{Status: http.StatusBadRequest, Msg: "snapshot_b64: " + err.Error()}
		}
		snap, err = checkpoint.DecodeBytes(raw)
		if err != nil {
			return "", false, &SubmitError{Status: http.StatusBadRequest, Msg: "snapshot: " + err.Error()}
		}
	}
	req := rr.Request
	if req.IdempotencyKey == "" {
		if alias == "" {
			return "", false, &SubmitError{Status: http.StatusBadRequest, Msg: "resume needs a job id or an idempotency key"}
		}
		req.IdempotencyKey = "resume:" + alias
	}
	j, err := s.decode(req)
	if err != nil {
		return "", false, &SubmitError{Status: http.StatusBadRequest, Msg: err.Error()}
	}
	j.resumes = rr.Resumes
	j.status.RestartResumes = rr.Resumes
	resumed := false
	if snap != nil && (s.opts.MaxRestartResumes < 0 || rr.Resumes <= s.opts.MaxRestartResumes) {
		j.resumeSnap = snap
		resumed = true
	}
	id, err := s.admit(j, req)
	if err != nil {
		return "", false, err
	}
	return id, resumed, nil
}

// virtualTimeHeader carries a checkpoint image's virtual time on
// GET /jobs/{id}/checkpoint.
const virtualTimeHeader = "X-Atomemu-Virtual-Time"

// handleCheckpoint serves GET /jobs/{id}/checkpoint: the running machine's
// latest checkpoint as an ACKP image, virtual time and consumed resume
// budget in headers. 404 when the job is unknown, not running, or has not
// checkpointed yet — to a router those all mean "nothing to ship".
func (s *Server) handleCheckpoint(w http.ResponseWriter, id string) {
	j := s.lookup(id)
	if j == nil {
		s.reply.Error(w, http.StatusNotFound, "no such job "+id)
		return
	}
	j.mu.Lock()
	m := j.machine
	resumes := j.resumes
	j.mu.Unlock()
	if m == nil {
		s.reply.Error(w, http.StatusNotFound, "job "+id+" is not running")
		return
	}
	snap := m.LatestCheckpoint()
	if snap == nil {
		s.reply.Error(w, http.StatusNotFound, "job "+id+" has no checkpoint yet")
		return
	}
	data, err := checkpoint.EncodeBytes(snap)
	if err != nil {
		s.reply.Error(w, http.StatusInternalServerError, fmt.Sprintf("encoding checkpoint: %v", err))
		return
	}
	setKeyHeader(w, j)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(virtualTimeHeader, strconv.FormatUint(snap.VirtualTime, 10))
	w.Header().Set("X-Atomemu-Resumes", strconv.Itoa(resumes))
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	if _, err := w.Write(data); err != nil {
		s.opts.Logger.Printf("server: writing checkpoint for %s: %v", id, err)
	}
}

// handleResume serves POST /jobs/{id}/resume.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request, id string) {
	var rr ResumeRequest
	if err := json.NewDecoder(r.Body).Decode(&rr); err != nil {
		s.reply.Error(w, http.StatusBadRequest, "bad json: "+err.Error())
		return
	}
	jid, resumed, err := s.SubmitResume(id, rr)
	if err != nil {
		s.reply.Fail(w, err)
		return
	}
	s.reply.JSON(w, http.StatusAccepted, map[string]any{
		"id": jid, "state": s.state(jid), "resumed": resumed,
	})
}
