package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"atomemu/internal/checkpoint"
	"atomemu/internal/durable"
	"atomemu/internal/engine"
	"atomemu/internal/gac"
)

// TestIdempotentSubmitReturnsSameJob: a key retried after the original
// admission returns the original job id, on a purely in-memory server.
func TestIdempotentSubmitReturnsSameJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	req := JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 100, IdempotencyKey: "k1"}
	id1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("idempotent re-submit: got %s then %s, want the same id", id1, id2)
	}
	other, err := s.Submit(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 100, IdempotencyKey: "k2"})
	if err != nil {
		t.Fatal(err)
	}
	if other == id1 {
		t.Fatalf("distinct keys mapped to one job %s", id1)
	}
	awaitTerminal(t, s, id1)
	awaitTerminal(t, s, other)
	// The key keeps answering after the job is terminal.
	id3, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if id3 != id1 {
		t.Fatalf("key re-submit after completion: got %s, want %s", id3, id1)
	}
	if got := s.Metrics().Accepted; got != 2 {
		t.Fatalf("accepted = %d, want 2 (retries must not re-admit)", got)
	}
}

// TestKeyedShedDistinct404: a keyed submission shed at admission gets an id,
// and GET /jobs/{id} answers 404 with reason "shed" — distinct from an id
// the server has never seen.
func TestKeyedShedDistinct404(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1, DrainGrace: 100 * time.Millisecond})
	// Occupy the single worker, then the single queue slot.
	spin := JobRequest{Scheme: "pico-cas", GAC: spinGAC, DeadlineMS: 2000}
	runningID, err := s.Submit(spin)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, _ := s.Status(runningID); st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first spin job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(spin); err != nil {
		t.Fatal(err)
	}

	_, err = s.Submit(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 10, IdempotencyKey: "shed-key"})
	se, ok := err.(*SubmitError)
	if !ok || se.Status != http.StatusTooManyRequests {
		t.Fatalf("keyed submit into a full queue: err=%v, want 429 SubmitError", err)
	}
	if se.ID == "" {
		t.Fatal("keyed shed carried no id")
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/jobs/" + se.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET shed job = %d, want 404", resp.StatusCode)
	}
	var ans map[string]string
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatalf("shed 404 body %q: %v", body, err)
	}
	if ans["reason"] != "shed" || ans["idempotency_key"] != "shed-key" {
		t.Fatalf("shed 404 body = %v, want reason=shed key=shed-key", ans)
	}
	// An unknown id stays a plain 404 without a reason.
	resp, err = http.Get(ts.URL + "/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	ans = nil
	json.Unmarshal(body, &ans)
	if resp.StatusCode != http.StatusNotFound || ans["reason"] != "" {
		t.Fatalf("unknown id: status=%d body=%v, want bare 404", resp.StatusCode, ans)
	}
}

// TestDurableRestartRoundTrip: jobs finished before a clean restart stay
// visible with their full results, idempotency keys keep answering, and a
// new submission continues the id sequence instead of reusing ids.
func TestDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 2, DataDir: dir, Fsync: "always"}

	s1 := newTestServer(t, Options{Workers: opts.Workers, DataDir: dir, Fsync: opts.Fsync})
	req := JobRequest{Scheme: "pico-cas", GAC: counterGAC, Threads: 2, Arg: 300, IdempotencyKey: "rt-key"}
	id, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	before := awaitTerminal(t, s1, id)
	if before.State != StateDone {
		t.Fatalf("job: state=%s err=%q", before.State, before.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if m := s1.Metrics(); m.JournalAppends == 0 || m.JournalFsyncs == 0 {
		t.Fatalf("durable server journaled nothing: %+v", m)
	}

	s2 := newTestServer(t, Options{Workers: opts.Workers, DataDir: dir, Fsync: opts.Fsync})
	after, ok := s2.Status(id)
	if !ok {
		t.Fatalf("job %s lost across restart", id)
	}
	if after.State != StateDone || after.ExitCode != before.ExitCode {
		t.Fatalf("restarted status: state=%s exit=%d, want done/%d", after.State, after.ExitCode, before.ExitCode)
	}
	if !equalU32(after.Output, before.Output) {
		t.Fatalf("output changed across restart: %v != %v", after.Output, before.Output)
	}
	m := s2.Metrics()
	if m.RestartTerminal != 1 || m.JournalReplayed == 0 {
		t.Fatalf("replay metrics: terminal=%d replayed=%d", m.RestartTerminal, m.JournalReplayed)
	}
	if m.JournalCorrupt != 0 {
		t.Fatalf("clean journal replayed %d corrupt records", m.JournalCorrupt)
	}
	// The key still answers with the original job — no re-execution.
	id2, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("key after restart: got %s, want %s", id2, id)
	}
	// Fresh ids continue past the replayed maximum.
	fresh, err := s2.Submit(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 10})
	if err != nil {
		t.Fatal(err)
	}
	if fresh == id {
		t.Fatalf("id %s reused across restart", id)
	}
	awaitTerminal(t, s2, fresh)
}

// crashedJobJournal simulates a daemon that was SIGKILLed: it writes the
// journal records (and optionally a spilled checkpoint) that the dead
// process would have left behind, without any server having run.
func crashedJobJournal(t *testing.T, dir string, recs []durable.Record) {
	t.Helper()
	jour, err := durable.Open(durable.Options{Dir: filepath.Join(dir, "journal"), Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := jour.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jour.Close(); err != nil {
		t.Fatal(err)
	}
}

// spillMidRunCheckpoint runs the job's program on a bare engine with
// checkpointing and writes a genuinely mid-run snapshot to the data dir as
// job id's spill, exactly as the dead daemon's spiller would have.
func spillMidRunCheckpoint(t *testing.T, dir, id, src string, arg uint32, every uint64) {
	t.Helper()
	im, err := gac.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig("pico-cas")
	cfg.CheckpointEvery = every
	var images [][]byte
	cfg.CheckpointSink = func(snap *checkpoint.Snapshot) {
		var b bytes.Buffer
		if err := checkpoint.Encode(&b, snap); err != nil {
			t.Error(err)
			return
		}
		images = append(images, b.Bytes())
	}
	m, err := engine.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SpawnThread(im.Entry, arg); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(images) < 2 {
		t.Fatalf("only %d checkpoints spilled; lower every (%d)", len(images), every)
	}
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckptDir, id), images[len(images)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRestartResumesFromDurableCheckpoint is the recovery matrix after a
// simulated SIGKILL: a started job with a good checkpoint resumes from it;
// one whose checkpoint is corrupt requeues from scratch; one past the
// restart-resume budget requeues; and all three finish with the output an
// uninterrupted run would print. The two requeued jobs are journaled first
// and one worker runs the queue in order, so by the time the resumed job
// starts its image has been seen twice and its blocks are in the store.
func TestRestartResumesFromDurableCheckpoint(t *testing.T) {
	const arg = 4000
	dir := t.TempDir()
	mk := func(key string) json.RawMessage {
		raw, err := json.Marshal(JobRequest{
			Scheme: "pico-cas", GAC: counterGAC, Arg: arg, IdempotencyKey: key,
			Config: JobConfig{CheckpointEvery: 2000},
		})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	crashedJobJournal(t, dir, []durable.Record{
		{Type: durable.TypeSubmitted, Job: "job-2", Key: "corrupt-key", Request: mk("corrupt-key")},
		{Type: durable.TypeStarted, Job: "job-2"},
		{Type: durable.TypeSubmitted, Job: "job-3", Key: "budget-key", Request: mk("budget-key")},
		{Type: durable.TypeStarted, Job: "job-3", Resumes: 7},
		{Type: durable.TypeSubmitted, Job: "job-1", Key: "resume-key", Request: mk("resume-key")},
		{Type: durable.TypeStarted, Job: "job-1"},
	})
	spillMidRunCheckpoint(t, dir, "job-1", counterGAC, arg, 2000)
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.WriteFile(filepath.Join(ckptDir, "job-2"), []byte("not a checkpoint image"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{Workers: 1, DataDir: dir, MaxRestartResumes: 3})
	m := s.Metrics()
	if m.RestartResumed != 1 {
		t.Fatalf("resumed = %d, want 1 (only job-1 had a usable checkpoint)", m.RestartResumed)
	}
	if m.RestartRequeued != 2 {
		t.Fatalf("requeued = %d, want 2 (corrupt checkpoint + spent budget)", m.RestartRequeued)
	}
	// job-3 is the image's second sight: it attached to the store and
	// published. What the store holds now is all of it.
	awaitTerminal(t, s, "job-3")
	published := s.Metrics().TBStorePublishes
	if published == 0 {
		t.Fatal("setup: the second from-scratch job of the image published nothing")
	}
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		st := awaitTerminal(t, s, id)
		if st.State != StateDone || st.ExitCode != 0 {
			t.Fatalf("%s: state=%s exit=%d err=%q", id, st.State, st.ExitCode, st.Error)
		}
		if !equalU32(st.Output, []uint32{arg}) {
			t.Fatalf("%s output = %v, want [%d] — recovery must not change results", id, st.Output, arg)
		}
		if st.RestartResumes == 0 {
			t.Fatalf("%s restart_resumes = 0, want the survived restart counted", id)
		}
	}
	// Snapshots carry cumulative counters, so a resumed job executes exactly
	// the guest instructions an uninterrupted run would — resume is invisible
	// in the guest-visible telemetry. (Virtual time may differ slightly: the
	// translation cache is host state, not snapshot state, so a resumed
	// machine re-pays translation cost for blocks it had already compiled.)
	resumed, _ := s.Status("job-1")
	scratch, _ := s.Status("job-2")
	if resumed.GuestInstrs != scratch.GuestInstrs {
		t.Fatalf("resumed guest instrs %d diverge from uninterrupted %d",
			resumed.GuestInstrs, scratch.GuestInstrs)
	}
	// A machine rebuilt from a snapshot never loads the image, so it cannot
	// attach to the store: a third from-scratch job would have adopted every
	// block job-3 published, the resumed one neither adopts nor publishes.
	if m := s.Metrics(); m.TBStoreHits != 0 || m.TBStorePublishes != published {
		t.Fatalf("resumed job touched the translation store: hits=%d publishes=%d (was %d)",
			m.TBStoreHits, m.TBStorePublishes, published)
	}
	// Keys replayed from the journal answer without re-admission.
	id, err := s.Submit(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: arg, IdempotencyKey: "resume-key"})
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-1" {
		t.Fatalf("resume-key answered %s, want job-1", id)
	}
}

// TestReplayToleratesRetiredStatusField: a journal written by the previous
// release carries a status field this one no longer has. Replay must hand
// the terminal status back unchanged otherwise, and must not run the job.
func TestReplayToleratesRetiredStatusField(t *testing.T) {
	dir := t.TempDir()
	want := JobStatus{
		ID: "job-1", State: StateDone, SchemeRequested: "pico-cas", SchemeEffective: "pico-cas",
		Class: "ok", Output: []uint32{7}, VirtualTime: 4242, GuestInstrs: 99, SCs: 7, Checkpoints: 2,
		EnqueuedAt: time.Unix(1_700_000_000, 0).UTC(),
		StartedAt:  time.Unix(1_700_000_001, 0).UTC(),
		FinishedAt: time.Unix(1_700_000_002, 0).UTC(),
	}
	status, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	status = bytes.Replace(status, []byte("{"), []byte(`{"warm_forked":true,`), 1)
	req, err := json.Marshal(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 7, IdempotencyKey: "old"})
	if err != nil {
		t.Fatal(err)
	}
	crashedJobJournal(t, dir, []durable.Record{
		{Type: durable.TypeSubmitted, Job: "job-1", Key: "old", Request: req},
		{Type: durable.TypeStarted, Job: "job-1"},
		{Type: durable.TypeFinished, Job: "job-1", Key: "old", Status: status},
	})

	s := newTestServer(t, Options{Workers: 1, DataDir: dir})
	if m := s.Metrics(); m.RestartTerminal != 1 || m.RestartRequeued != 0 || m.RestartResumed != 0 || m.JournalCorrupt != 0 {
		t.Fatalf("replay metrics: terminal=%d requeued=%d resumed=%d corrupt=%d, want 1/0/0/0",
			m.RestartTerminal, m.RestartRequeued, m.RestartResumed, m.JournalCorrupt)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/jobs/job-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/job-1 = %d", resp.StatusCode)
	}
	var got JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed status\n got  %+v\n want %+v", got, want)
	}
	if m := s.Metrics(); m.Accepted != 0 || m.Completed != 0 {
		t.Fatalf("a finished job ran again after replay: %+v", m)
	}
}

// TestRecoveryToleratesCorruptJournalTail: garbage appended to the journal
// (a torn final write) must not lose the intact records before it, and must
// never fail startup.
func TestRecoveryToleratesCorruptJournalTail(t *testing.T) {
	dir := t.TempDir()
	raw, _ := json.Marshal(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 50, IdempotencyKey: "torn"})
	crashedJobJournal(t, dir, []durable.Record{
		{Type: durable.TypeSubmitted, Job: "job-1", Key: "torn", Request: raw},
	})
	// Tear the tail of the newest segment with half a frame of garbage.
	segs, err := filepath.Glob(filepath.Join(dir, "journal", "*.waj"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x13, 0x37}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := newTestServer(t, Options{Workers: 1, DataDir: dir})
	st := awaitTerminal(t, s, "job-1")
	if st.State != StateDone {
		t.Fatalf("job-1 after torn tail: state=%s err=%q", st.State, st.Error)
	}
	if got := s.Metrics().JournalReplayed; got != 1 {
		t.Fatalf("replayed = %d, want the 1 intact record", got)
	}
}

// TestDurableJobSpillsCheckpoints: a checkpointing job on a durable server
// spills snapshots to disk while running, the spill counters advance, and a
// terminal job's spill file is deleted (it can never be resumed).
func TestDurableJobSpillsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{Workers: 1, DataDir: dir})
	id, err := s.Submit(JobRequest{
		Scheme: "pico-cas", GAC: counterGAC, Arg: 4000,
		Config: JobConfig{CheckpointEvery: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := awaitTerminal(t, s, id)
	if st.State != StateDone {
		t.Fatalf("state=%s err=%q", st.State, st.Error)
	}
	m := s.Metrics()
	if m.CkptSpills == 0 || m.CkptSpillBytes == 0 {
		t.Fatalf("no checkpoint spills recorded: %+v", m)
	}
	if m.CkptSpillErrors != 0 {
		t.Fatalf("spill errors: %d", m.CkptSpillErrors)
	}
	// The status turns terminal before finish journals the result and
	// deletes the spill, so give that tail a moment.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := os.Stat(filepath.Join(dir, "ckpt", id))
		if os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("terminal job's spill file still on disk (err=%v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFinishedJobDropsRunState: a terminal job is only ever read through
// its status and key, so finish must release the image, config (with any
// fault injector), journaled request and resume snapshot — a long-lived
// daemon otherwise pins every program it ever ran. GET, a journal
// compaction and a restart replay must keep answering with the same status.
func TestFinishedJobDropsRunState(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{Workers: 2, DataDir: dir, Fsync: "always", AllowFaultInjection: true})
	req := JobRequest{Scheme: "pico-cas", GAC: counterGAC, Threads: 2, Arg: 200, IdempotencyKey: "drop-key",
		Fault: []FaultRule{{Op: "mem-load", Action: "fault", After: 1 << 40}}}
	id, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	want := awaitTerminal(t, s1, id)
	if want.State != StateDone {
		t.Fatalf("job: state=%s err=%q", want.State, want.Error)
	}

	s1.mu.Lock()
	j := s1.jobs[id]
	s1.mu.Unlock()
	j.mu.Lock()
	if j.im != nil || j.rawReq != nil || j.resumeSnap != nil || j.machine != nil || j.cancel != nil ||
		j.cfg.FaultInjector != nil || j.cfg.Scheme != "" {
		t.Errorf("finished job still holds run state: im=%v rawReq=%d bytes resumeSnap=%v cfg.Scheme=%q injector=%v",
			j.im != nil, len(j.rawReq), j.resumeSnap != nil, j.cfg.Scheme, j.cfg.FaultInjector != nil)
	}
	j.mu.Unlock()

	same := func(stage string, got JobStatus) {
		t.Helper()
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Errorf("%s: status changed:\n got  %s\n want %s", stage, g, w)
		}
	}
	ts := httptest.NewServer(s1.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var viaHTTP JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&viaHTTP); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	same("GET", viaHTTP)
	if id2, err := s1.Submit(req); err != nil || id2 != id {
		t.Fatalf("idempotent replay of a finished job: id=%q err=%v, want %s", id2, err, id)
	}

	if err := s1.dur.jour.CompactNow(); err != nil {
		t.Fatal(err)
	}
	got, _ := s1.Status(id)
	same("after compaction", got)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, Options{Workers: 2, DataDir: dir, Fsync: "always", AllowFaultInjection: true})
	got, ok := s2.Status(id)
	if !ok {
		t.Fatalf("job %s lost across restart", id)
	}
	same("after restart", got)
	if id2, err := s2.Submit(req); err != nil || id2 != id {
		t.Fatalf("key after restart: id=%q err=%v, want %s", id2, err, id)
	}
}

// TestRestartSweepsStaleCheckpointTemps: a crash between CreateTemp and the
// rename leaves <datadir>/ckpt/<job>.tmp-* orphans; startup must remove
// them — and only them, never a completed spill.
func TestRestartSweepsStaleCheckpointTemps(t *testing.T) {
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := []string{"job-1.tmp-123456", "job-7.tmp-9"}
	for _, name := range stale {
		if err := os.WriteFile(filepath.Join(ckptDir, name), []byte("torn spill"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(ckptDir, "job-2"), []byte("completed spill"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{Workers: 1, DataDir: dir})
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(ckptDir, name)); !os.IsNotExist(err) {
			t.Errorf("stale temp %s survived the startup sweep (err=%v)", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(ckptDir, "job-2")); err != nil {
		t.Errorf("completed spill removed by the sweep: %v", err)
	}
	if got := s.Metrics().CkptTempsSwept; got != uint64(len(stale)) {
		t.Errorf("ckpt temps swept = %d, want %d", got, len(stale))
	}

	// The sweep is startup-only hygiene: a live spiller's temps (written and
	// renamed while running) must be unaffected — exercise a real durable
	// checkpointing job on the same server to be sure nothing regressed.
	id, err := s.Submit(JobRequest{
		Scheme: "pico-cas", GAC: counterGAC, Arg: 4000,
		Config: JobConfig{CheckpointEvery: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := awaitTerminal(t, s, id)
	if st.State != StateDone {
		t.Fatalf("state=%s err=%q", st.State, st.Error)
	}
	if st.Checkpoints == 0 {
		t.Fatal("job took no checkpoints; the spiller never ran")
	}
	// Terminal jobs have their spill removed; what must never accumulate
	// is half-written temps.
	ents, err := os.ReadDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind after a clean spill", e.Name())
		}
	}
}
