package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atomemu/internal/checkpoint"
	"atomemu/internal/durable"
)

// This file is the server's durability layer, enabled by Options.DataDir:
// every admission-relevant transition is journaled write-ahead (package
// durable), running jobs spill their latest engine checkpoint to
// <datadir>/ckpt/<jobid>, and New replays the journal so a daemon that was
// SIGKILLed mid-burst restarts with nothing lost — terminal jobs answer
// GETs idempotently, queued jobs requeue, and running jobs resume from
// their last durable checkpoint (falling back to a requeue from scratch
// when no checkpoint survived, bounded by MaxRestartResumes).

// durability is the per-server durable state. nil on servers without a
// DataDir; every hook checks.
type durability struct {
	jourDir    string
	ckptDir    string
	jour       *durable.Journal
	maxResumes int
	replay     durable.ReplayStats
	closeOnce  sync.Once

	spills         atomic.Uint64
	spillBytes     atomic.Uint64
	spillErrors    atomic.Uint64
	ckptTempsSwept atomic.Uint64

	journalErrors    atomic.Uint64
	ckptDecodeErrors atomic.Uint64

	restartResumed  atomic.Uint64
	restartRequeued atomic.Uint64
	restartTerminal atomic.Uint64
}

// initDurability replays the journal, rebuilds the server's job, shed and
// idempotency state, and opens a fresh journal segment. Recovered
// non-terminal jobs are appended to requeue in their original admission
// order; the caller enqueues them before starting workers. Torn or corrupt
// journal bytes never fail startup (they are tolerated and counted); only
// real I/O errors do.
func (s *Server) initDurability(requeue *[]*job) error {
	sync, err := durable.ParseSyncPolicy(s.opts.Fsync)
	if err != nil {
		return err
	}
	d := &durability{
		jourDir:    filepath.Join(s.opts.DataDir, "journal"),
		ckptDir:    filepath.Join(s.opts.DataDir, "ckpt"),
		maxResumes: s.opts.MaxRestartResumes,
	}
	if err := os.MkdirAll(d.ckptDir, 0o755); err != nil {
		return err
	}
	d.sweepTempSpills(s)
	recs, rst, err := durable.Replay(d.jourDir)
	if err != nil {
		return err
	}
	d.replay = rst

	// Fold the record stream into per-job end states, preserving admission
	// order. Later records win (a re-submitted shed key clears the shed
	// marker; a finished record supersedes everything). The server maps are
	// mutated under the lock: with BackgroundReplay, status reads are
	// already being served while this runs.
	s.mu.Lock()
	type jobReplay struct {
		id       string
		key      string
		req      json.RawMessage
		started  bool
		resumes  int
		finished bool
		status   json.RawMessage
	}
	byID := make(map[string]*jobReplay)
	var order []string
	var maxID uint64
	get := func(id string) *jobReplay {
		jr := byID[id]
		if jr == nil {
			jr = &jobReplay{id: id}
			byID[id] = jr
			order = append(order, id)
		}
		return jr
	}
	for _, r := range recs {
		if n, ok := parseJobID(r.Job); ok && n > maxID {
			maxID = n
		}
		switch r.Type {
		case durable.TypeSubmitted:
			jr := get(r.Job)
			jr.key, jr.req = r.Key, r.Request
			if r.Key != "" {
				s.idemp[r.Key] = r.Job
				if old := s.shedByKey[r.Key]; old != "" {
					delete(s.shedByKey, r.Key)
					delete(s.shedByID, old)
				}
			}
		case durable.TypeStarted:
			jr := get(r.Job)
			jr.started = true
			jr.resumes = r.Resumes
		case durable.TypeCheckpointed:
			// The checkpoint file itself is the source of truth; the record
			// is observability. Nothing to fold.
		case durable.TypeFinished:
			jr := get(r.Job)
			jr.finished = true
			jr.status = r.Status
			jr.key = r.Key
			if r.Key != "" {
				s.idemp[r.Key] = r.Job
			}
		case durable.TypeShed:
			if r.Key != "" && s.idemp[r.Key] == "" {
				s.shedByKey[r.Key] = r.Job
				s.shedByID[r.Job] = r.Key
			}
		}
	}
	s.nextID = maxID

	now := time.Now()
	for _, id := range order {
		jr := byID[id]
		switch {
		case jr.finished:
			// Terminal: re-register for idempotent GETs; never runs again.
			j := &job{id: id, key: jr.key}
			if err := json.Unmarshal(jr.status, &j.status); err != nil {
				j.status = JobStatus{State: StateFailed, ExitCode: -1,
					Error: fmt.Sprintf("recovery: stored status unreadable: %v", err)}
			}
			j.status.ID = id
			s.jobs[id] = j
			d.restartTerminal.Add(1)
		case jr.req != nil:
			j := s.recoverJob(d, jr.id, jr.key, jr.req, jr.started, jr.resumes, now)
			s.jobs[id] = j
			if j.status.State.Terminal() {
				// Request no longer admissible (policy changed across the
				// restart): terminal-failed, still visible to GETs.
				d.restartTerminal.Add(1)
				continue
			}
			*requeue = append(*requeue, j)
		}
	}
	s.mu.Unlock()

	jour, err := durable.Open(durable.Options{
		Dir:           d.jourDir,
		Sync:          sync,
		CompactSource: s.liveRecords,
	})
	if err != nil {
		return err
	}
	d.jour = jour
	// Publish the durability layer only now that it is whole: concurrent
	// Metrics reads during a background replay must see nil or a d whose
	// journal is open, never a half-built one.
	s.mu.Lock()
	s.dur = d
	s.mu.Unlock()
	// Collapse replayed history into one segment holding just the live set,
	// so journal size tracks live work, not daemon restarts.
	return jour.CompactNow()
}

// recoverJob rebuilds a runnable job from its journaled submission. A
// started job tries to resume from its durable checkpoint; without one (or
// past the restart-resume budget) it requeues from scratch.
func (s *Server) recoverJob(d *durability, id, key string, raw json.RawMessage, started bool, resumes int, now time.Time) *job {
	var req JobRequest
	var j *job
	err := json.Unmarshal(raw, &req)
	if err == nil {
		j, err = s.decode(req)
	}
	if err != nil {
		return &job{id: id, key: key, status: JobStatus{
			ID: id, State: StateFailed, ExitCode: -1,
			Error:      fmt.Sprintf("recovery: request no longer admissible: %v", err),
			EnqueuedAt: now, FinishedAt: now,
		}}
	}
	j.id = id
	j.key = key
	j.rawReq = raw
	j.status.ID = id
	j.status.EnqueuedAt = now
	if started {
		j.resumes = resumes + 1
		if d.maxResumes < 0 || j.resumes <= d.maxResumes {
			if snap, ok := d.loadSnapshot(s, id); ok {
				j.resumeSnap = snap
				d.restartResumed.Add(1)
				j.status.RestartResumes = j.resumes
				return j
			}
		}
		// No usable checkpoint, or budget spent: run it again from scratch.
		j.status.RestartResumes = j.resumes
	}
	d.restartRequeued.Add(1)
	return j
}

// loadSnapshot reads and decodes a job's spilled checkpoint. Any damage —
// missing file, torn write, corrupt image — is a "no checkpoint" answer,
// never a startup failure.
func (d *durability) loadSnapshot(s *Server, id string) (*checkpoint.Snapshot, bool) {
	data, err := os.ReadFile(filepath.Join(d.ckptDir, id))
	if err != nil {
		return nil, false
	}
	snap, err := checkpoint.DecodeBytes(data)
	if err != nil {
		d.ckptDecodeErrors.Add(1)
		s.opts.Logger.Printf("server: checkpoint for %s unreadable, requeueing from scratch: %v", id, err)
		return nil, false
	}
	return snap, true
}

// sweepTempSpills deletes stale spill temp files left under the checkpoint
// directory by a crash between a temp's write and its rename (writeSnapshot
// is temp+fsync+rename, so a SIGKILL in that window orphans the temp
// forever — no later spill or terminal cleanup ever touches its random
// suffix). Runs once at startup, before replay resumes any job: every temp
// present now is garbage by construction, since a live spill can only be
// in flight while its job's machine runs, and nothing runs yet.
func (d *durability) sweepTempSpills(s *Server) {
	ents, err := os.ReadDir(d.ckptDir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if e.IsDir() || !strings.Contains(e.Name(), ".tmp-") {
			continue
		}
		if err := os.Remove(filepath.Join(d.ckptDir, e.Name())); err != nil {
			s.opts.Logger.Printf("server: sweeping stale spill temp %s: %v", e.Name(), err)
			continue
		}
		d.ckptTempsSwept.Add(1)
	}
}

// removeSnapshot deletes a terminal job's spill; it can never be resumed.
func (d *durability) removeSnapshot(id string) {
	if err := os.Remove(filepath.Join(d.ckptDir, id)); err != nil && !os.IsNotExist(err) {
		d.spillErrors.Add(1)
	}
}

// journalAppend writes one record if durability is on. Journal failures
// degrade durability, not availability: they are logged and counted, and
// the job proceeds.
func (s *Server) journalAppend(rec durable.Record) {
	d := s.dur
	if d == nil || d.jour == nil {
		return
	}
	rec.UnixMS = time.Now().UnixMilli()
	if err := d.jour.Append(rec); err != nil {
		d.journalErrors.Add(1)
		s.opts.Logger.Printf("server: journal append (%s %s): %v", rec.Type, rec.Job, err)
	}
}

// journalFinish appends a job's terminal record and forces it to disk
// regardless of the batch policy: "done" answered to a client must survive
// the next crash, or a restart would re-run a completed job.
func (s *Server) journalFinish(j *job, st JobStatus) {
	d := s.dur
	if d == nil {
		return
	}
	b, err := json.Marshal(st)
	if err != nil {
		d.journalErrors.Add(1)
		return
	}
	s.journalAppend(durable.Record{Type: durable.TypeFinished, Job: j.id, Key: j.key, Status: b})
	if err := d.jour.Sync(); err != nil {
		d.journalErrors.Add(1)
	}
	d.removeSnapshot(j.id)
}

// liveRecords is the journal's compact source: the minimal record set that
// reproduces the server's current durable state. Runs under the journal
// lock; takes s.mu and each job's mu (never the reverse order anywhere).
func (s *Server) liveRecords() []durable.Record {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	sheds := make(map[string]string, len(s.shedByID))
	for id, key := range s.shedByID {
		sheds[id] = key
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool {
		a, _ := parseJobID(jobs[i].id)
		b, _ := parseJobID(jobs[k].id)
		return a < b
	})
	var out []durable.Record
	for _, j := range jobs {
		// Read the request before the status: finish drops it in the same
		// critical section that makes the status terminal, so a job still
		// live at the snapshot below had its request intact here.
		j.mu.Lock()
		rawReq := j.rawReq
		j.mu.Unlock()
		st := j.snapshot()
		if st.State.Terminal() {
			b, err := json.Marshal(st)
			if err != nil {
				continue
			}
			out = append(out, durable.Record{Type: durable.TypeFinished, Job: j.id, Key: j.key, Status: b})
			continue
		}
		out = append(out, durable.Record{Type: durable.TypeSubmitted, Job: j.id, Key: j.key, Request: rawReq})
		if st.State == StateRunning {
			out = append(out, durable.Record{Type: durable.TypeStarted, Job: j.id, Resumes: j.resumes})
		}
	}
	for id, key := range sheds {
		out = append(out, durable.Record{Type: durable.TypeShed, Job: id, Key: key})
	}
	return out
}

// closeJournal flushes and closes the journal at the end of a drain.
func (s *Server) closeJournal() {
	if d := s.dur; d != nil && d.jour != nil {
		d.closeOnce.Do(func() {
			if err := d.jour.Close(); err != nil {
				s.opts.Logger.Printf("server: closing journal: %v", err)
			}
		})
	}
}

func parseJobID(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	return n, err == nil
}

// --- checkpoint spilling ---

// spiller is a per-run writer goroutine fed by the engine's CheckpointSink.
// The sink must never block the capturing vCPU, so the hand-off channel is
// latest-wins: a spill slower than the checkpoint cadence just skips
// intermediate snapshots — only the newest matters for recovery.
type spiller struct {
	s     *Server
	jobID string
	ch    chan *checkpoint.Snapshot
	done  chan struct{}
}

func (s *Server) newSpiller(jobID string) *spiller {
	sp := &spiller{s: s, jobID: jobID, ch: make(chan *checkpoint.Snapshot, 1), done: make(chan struct{})}
	go sp.loop()
	return sp
}

// sink is installed as engine Config.CheckpointSink. Called outside the
// quiet window with an immutable snapshot; never blocks.
func (sp *spiller) sink(snap *checkpoint.Snapshot) {
	for {
		select {
		case sp.ch <- snap:
			return
		default:
			// Full: evict the stale snapshot and retry with the newer one.
			select {
			case <-sp.ch:
			default:
			}
		}
	}
}

func (sp *spiller) loop() {
	defer close(sp.done)
	for snap := range sp.ch {
		sp.s.dur.writeSnapshot(sp.s, sp.jobID, snap)
	}
}

// stop drains the final snapshot and waits for it to hit disk. Call only
// after the machine has stopped (no further sink calls), and before the
// terminal record deletes the spill file.
func (sp *spiller) stop() {
	close(sp.ch)
	<-sp.done
}

// countingWriter counts encoded bytes for the spill metrics.
type countingWriter struct {
	f *os.File
	n uint64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.n += uint64(n)
	return n, err
}

// writeSnapshot spills one snapshot crash-safely: encode to a temp file,
// fsync, rename over <ckptDir>/<jobID>. A reader (the recovery path of a
// later process) sees either the old complete image or the new one, never
// a torn mix.
func (d *durability) writeSnapshot(s *Server, jobID string, snap *checkpoint.Snapshot) {
	fail := func(stage string, err error) {
		d.spillErrors.Add(1)
		s.opts.Logger.Printf("server: spilling checkpoint for %s (%s): %v", jobID, stage, err)
	}
	tmp, err := os.CreateTemp(d.ckptDir, jobID+".tmp-*")
	if err != nil {
		fail("create", err)
		return
	}
	cw := &countingWriter{f: tmp}
	if err := checkpoint.Encode(cw, snap); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		fail("encode", err)
		return
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		fail("fsync", err)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		fail("close", err)
		return
	}
	if err := os.Rename(tmp.Name(), filepath.Join(d.ckptDir, jobID)); err != nil {
		os.Remove(tmp.Name())
		fail("rename", err)
		return
	}
	d.spills.Add(1)
	d.spillBytes.Add(cw.n)
	s.journalAppend(durable.Record{Type: durable.TypeCheckpointed, Job: jobID, VirtualTime: snap.VirtualTime})
}
