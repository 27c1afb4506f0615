package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// clientFor serves s over a loopback listener and returns a Client for it.
func clientFor(t *testing.T, s *Server) (Client, string) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return Client{HTTP: &http.Client{Timeout: 10 * time.Second}}, ts.URL
}

func wire(t *testing.T, req JobRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClientSubmitAck: a 202 reads as Accepted, and an idempotent
// re-submit of a finished key answers the same id with its terminal state.
func TestClientSubmitAck(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	c, base := clientFor(t, s)
	ctx := context.Background()
	body := wire(t, JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 10, IdempotencyKey: "ack"})
	ack, err := c.Submit(ctx, base, body)
	if err != nil {
		t.Fatal(err)
	}
	if ack.ID == "" || ack.Resumed {
		t.Fatalf("first ack = %+v, want an id and resumed=false", ack)
	}
	awaitTerminal(t, s, ack.ID)
	again, err := c.Submit(ctx, base, body)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != ack.ID || again.State != StateDone {
		t.Fatalf("re-submit ack = %+v, want id %s in state done", again, ack.ID)
	}
}

// TestClientRefused: a full queue's 429 is a Refused carrying the
// Retry-After hint, and a malformed job's 400 a Refused with the server's
// error text.
func TestClientRefused(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1, DrainGrace: 100 * time.Millisecond})
	c, base := clientFor(t, s)
	ctx := context.Background()

	var refused *Refused
	spin := wire(t, JobRequest{Scheme: "pico-cas", GAC: spinGAC, DeadlineMS: 2000})
	for i := 0; i < 10 && refused == nil; i++ {
		if _, err := c.Submit(ctx, base, spin); err != nil && !errors.As(err, &refused) {
			t.Fatalf("submit %d: %v, want an ack or a Refused", i, err)
		}
	}
	if refused == nil {
		t.Fatal("queue never filled: no refusal in 10 submissions")
	}
	if refused.Code != http.StatusTooManyRequests || refused.RetryAfter < 1 || refused.Msg != "queue full" {
		t.Fatalf("shed = %+v, want 429 \"queue full\" with Retry-After >= 1", refused)
	}

	_, err := c.Submit(ctx, base, wire(t, JobRequest{Scheme: "pico-cas"}))
	if !errors.As(err, &refused) || refused.Code != http.StatusBadRequest || refused.RetryAfter != 0 {
		t.Fatalf("program-less submit: %v, want a 400 Refused without Retry-After", err)
	}
	if !strings.Contains(err.Error(), "HTTP 400: ") || refused.Msg == "" {
		t.Fatalf("400 refusal reads %q (msg %q)", err, refused.Msg)
	}
}

// TestClientStatusFoundOnlyForItsKey: Status reports found only for a 200
// about the job of the key asked for. Another key's job, an unknown id and
// a keyed shed's distinct 404 all read as not found, without an error.
func TestClientStatusFoundOnlyForItsKey(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1, DrainGrace: 100 * time.Millisecond})
	c, base := clientFor(t, s)
	ctx := context.Background()

	id, err := s.Submit(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 7, IdempotencyKey: "mine"})
	if err != nil {
		t.Fatal(err)
	}
	awaitTerminal(t, s, id)
	st, found, err := c.Status(ctx, base, id, "mine")
	if err != nil || !found || st.State != StateDone || len(st.Output) != 1 || st.Output[0] != 7 {
		t.Fatalf("own key: status=%+v found=%v err=%v, want done with output [7]", st, found, err)
	}
	if _, found, err := c.Status(ctx, base, id, "theirs"); err != nil || found {
		t.Fatalf("another key: found=%v err=%v, want not found", found, err)
	}
	if _, found, err := c.Status(ctx, base, id, ""); err != nil || found {
		t.Fatalf("unkeyed caller on a keyed job: found=%v err=%v, want not found", found, err)
	}
	if _, found, err := c.Status(ctx, base, "job-999", ""); err != nil || found {
		t.Fatalf("unknown id: found=%v err=%v, want not found", found, err)
	}

	// Occupy the worker and the queue slot, then shed a keyed submission.
	spin := JobRequest{Scheme: "pico-cas", GAC: spinGAC, DeadlineMS: 2000}
	running, err := s.Submit(spin)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, _ := s.Status(running); st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the first spin job never started")
		}
	}
	if _, err := s.Submit(spin); err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 1, IdempotencyKey: "shed"})
	var se *SubmitError
	if !errors.As(err, &se) || se.ID == "" {
		t.Fatalf("keyed submit into a full queue: %v, want a keyed shed", err)
	}
	if _, found, err := c.Status(ctx, base, se.ID, "shed"); err != nil || found {
		t.Fatalf("keyed shed: found=%v err=%v, want not found", found, err)
	}
}

// TestClientCheckpoint: a job with no checkpoint yet, an unknown id and
// another key's job all read as a nil image; a running job's checkpoint
// reads as its ACKP image and virtual time.
func TestClientCheckpoint(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, DrainGrace: 100 * time.Millisecond})
	c, base := clientFor(t, s)
	ctx := context.Background()

	if img, vt, err := c.Checkpoint(ctx, base, "job-999", ""); err != nil || img != nil || vt != 0 {
		t.Fatalf("unknown id: image=%d bytes vt=%d err=%v, want nothing", len(img), vt, err)
	}
	id, err := s.Submit(JobRequest{
		Scheme: "pico-cas", GAC: spinGAC, DeadlineMS: 3000, IdempotencyKey: "ckpt",
		Config: JobConfig{CheckpointEvery: 5000},
	})
	if err != nil {
		t.Fatal(err)
	}
	var img []byte
	var vt uint64
	for deadline := time.Now().Add(10 * time.Second); img == nil; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the running job never exported a checkpoint")
		}
		if img, vt, err = c.Checkpoint(ctx, base, id, "ckpt"); err != nil {
			t.Fatal(err)
		}
	}
	if len(img) < 4 || string(img[:4]) != "ACKP" || vt == 0 {
		t.Fatalf("checkpoint: %d bytes starting %q, vt=%d; want an ACKP image with vt > 0", len(img), img[:min(len(img), 4)], vt)
	}
	if img, _, err := c.Checkpoint(ctx, base, id, "other"); err != nil || img != nil {
		t.Fatalf("another key's checkpoint: %d bytes, err=%v, want nothing", len(img), err)
	}
}

// TestClientResume: a resume without a snapshot is accepted from scratch
// (resumed=false), and re-shipping it under the same alias answers the
// same job.
func TestClientResume(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	c, base := clientFor(t, s)
	ctx := context.Background()
	rr := ResumeRequest{Request: JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 3}, Resumes: 1}
	ack, err := c.Resume(ctx, base, "fab-1", rr)
	if err != nil {
		t.Fatal(err)
	}
	if ack.ID == "" || ack.Resumed {
		t.Fatalf("snapshot-less resume ack = %+v, want an id and resumed=false", ack)
	}
	again, err := c.Resume(ctx, base, "fab-1", rr)
	if err != nil || again.ID != ack.ID {
		t.Fatalf("re-shipped resume = %+v, %v; want id %s", again, err, ack.ID)
	}
}

// TestClientCompletionsResetOnForeignEpoch: a cursor from another epoch is
// answered reset, with this process's epoch and head to adopt.
func TestClientCompletionsResetOnForeignEpoch(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	c, base := clientFor(t, s)
	ctx := context.Background()
	id, err := s.Submit(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 2})
	if err != nil {
		t.Fatal(err)
	}
	awaitTerminal(t, s, id)
	resp, err := c.Completions(ctx, base, "not-this-process", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Reset || resp.Epoch == "" || resp.Epoch == "not-this-process" || resp.Seq != 1 || len(resp.Jobs) != 0 {
		t.Fatalf("foreign epoch: %+v, want reset to this epoch at seq 1 with no jobs", resp)
	}
	resp, err = c.Completions(ctx, base, resp.Epoch, 0, 0)
	if err != nil || resp.Reset || len(resp.Jobs) != 1 || resp.Jobs[0].ID != id {
		t.Fatalf("own epoch from 0: %+v, %v; want the one finished job", resp, err)
	}
}

// TestClientReadyStatzMetrics: Ready reads the queue gauges, Statz and
// Metrics the counters, and Ready fails once the server drains.
func TestClientReadyStatzMetrics(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 5})
	c, base := clientFor(t, s)
	ctx := context.Background()
	id, err := s.Submit(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 2})
	if err != nil {
		t.Fatal(err)
	}
	awaitTerminal(t, s, id)

	if q, depth, err := c.Ready(ctx, base); err != nil || q != 0 || depth != 5 {
		t.Fatalf("ready = %d/%d, %v; want 0/5", q, depth, err)
	}
	if sz, err := c.Statz(ctx, base); err != nil || sz.Metrics.Accepted != 1 || sz.Metrics.Completed != 1 {
		t.Fatalf("statz = %+v, %v; want 1 accepted, 1 completed", sz.Metrics, err)
	}
	mets, err := c.Metrics(ctx, base)
	if err != nil || mets["atomemu_jobs_accepted_total"] != 1 || mets["atomemu_jobs_completed_total"] != 1 {
		t.Fatalf("metrics accepted=%g completed=%g, %v; want 1 and 1",
			mets["atomemu_jobs_accepted_total"], mets["atomemu_jobs_completed_total"], err)
	}

	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Ready(ctx, base); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("ready while drained: %v, want a 503 error", err)
	}
}
