package server

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the worker's completion feed: an ordered log of the jobs
// that turned terminal, served as a long-poll so a router learns of a
// completion when it happens instead of asking about every in-flight job
// on a timer.
//
// finish publishes a job's id AFTER its terminal journal record is on
// disk, so an event never announces a result a crash could still take
// back. The log is a bounded in-memory ring of ids (statuses are read at
// serve time — a terminal status never changes), numbered by a sequence
// that starts at 1 in every process; the per-process epoch lets a watcher
// tell "nothing new" from "a different process answers now". A cursor from
// another epoch, or one the ring has lapped, is answered reset:true with
// the current sequence: the watcher adopts that cursor, then reconciles
// its own in-flight jobs one by one — list after watch, so nothing
// published in between is missed. Delivery is at-least-once: the watcher
// advances its cursor only past a response it parsed.

const (
	// completionRing bounds the feed's memory; a watcher more than this many
	// completions behind is told to reset.
	completionRing = 1024
	// maxCompletionsWait caps one long-poll; a longer wait only ties up a
	// connection a restarted watcher would abandon anyway.
	maxCompletionsWait = 30 * time.Second
)

// CompletionsResponse is the wire form of GET /completions.
type CompletionsResponse struct {
	// Epoch identifies the serving process; Seq is the cursor to pass as
	// after= next time (the last event included, or the feed head on reset
	// and on an empty answer).
	Epoch string `json:"epoch"`
	Seq   uint64 `json:"seq"`
	// Reset means the request's cursor was unusable (another epoch, or
	// lapped by the ring): no jobs are included, and the watcher must
	// reconcile its in-flight jobs after adopting Seq.
	Reset bool `json:"reset,omitempty"`
	// Jobs are the jobs that turned terminal after the cursor, in
	// completion order.
	Jobs []Completion `json:"jobs,omitempty"`
}

// Completion is one feed event: a job's final status, plus the
// idempotency key it was admitted under ("" if none). The key is what a
// watcher matches the event on: a job id is only unique within one
// in-memory process (a restarted one starts again at job-1), the key names
// the same submission everywhere.
type Completion struct {
	Key string `json:"key,omitempty"`
	JobStatus
}

// completions is the feed state. The zero value is not usable; see
// newCompletions.
type completions struct {
	epoch string

	mu     sync.Mutex
	seq    uint64                 // sequence of the newest event; 0 = none yet
	ids    [completionRing]string // event n lives at ids[n%completionRing]
	wake   chan struct{}          // closed (and replaced) by every publish
	closed bool                   // the server has drained; no more events

	waiters atomic.Int64
}

func newCompletions() *completions {
	var b [8]byte
	_, _ = rand.Read(b[:]) // crypto/rand.Read never returns an error (it aborts the process instead)
	return &completions{epoch: hex.EncodeToString(b[:]), wake: make(chan struct{})}
}

// publish appends one terminal job to the feed and wakes every waiter.
func (c *completions) publish(id string) {
	c.mu.Lock()
	c.seq++
	c.ids[c.seq%completionRing] = id
	close(c.wake)
	c.wake = make(chan struct{})
	c.mu.Unlock()
}

// close ends the feed: blocked and later requests are answered 503, like
// /readyz on a drained server.
func (c *completions) close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.wake)
	}
	c.mu.Unlock()
}

// gauges reads the feed head and the blocked-watcher count for /metrics.
func (c *completions) gauges() (seq uint64, waiters int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq, c.waiters.Load()
}

// feedView is what the feed holds for one cursor at one instant.
type feedView struct {
	ids    []string        // published after the cursor, oldest first
	seq    uint64          // the feed head
	reset  bool            // the cursor was unusable; ids is empty
	closed bool            // the server has drained
	wake   <-chan struct{} // closed by the next publish, or by close
}

// since returns the feed's view for the cursor (epoch, after).
func (c *completions) since(epoch string, after uint64) feedView {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := feedView{seq: c.seq, closed: c.closed, wake: c.wake}
	if epoch != c.epoch || after > c.seq || c.seq-after > completionRing {
		v.reset = true
		return v
	}
	for n := after + 1; n <= c.seq; n++ {
		v.ids = append(v.ids, c.ids[n%completionRing])
	}
	return v
}

// handleCompletions serves GET /completions?epoch=E&after=N&wait=S: every
// job that turned terminal after cursor N of epoch E, waiting up to S
// seconds (fractions allowed, capped at maxCompletionsWait) for the first
// one. An expired wait is a 200 with no jobs.
func (s *Server) handleCompletions(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var after uint64
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, "after: "+err.Error())
			return
		}
		after = n
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		secs, err := strconv.ParseFloat(v, 64)
		if err != nil || !(secs >= 0) { // NaN fails the comparison too
			s.httpError(w, http.StatusBadRequest, "wait: want a non-negative number of seconds")
			return
		}
		wait = time.Duration(min(secs, maxCompletionsWait.Seconds()) * float64(time.Second))
	}
	expired := time.NewTimer(wait)
	defer expired.Stop()
	c := s.completions
	for {
		v := c.since(q.Get("epoch"), after)
		if v.closed && len(v.ids) == 0 {
			s.httpError(w, http.StatusServiceUnavailable, "drained")
			return
		}
		resp := CompletionsResponse{Epoch: c.epoch, Seq: v.seq, Reset: v.reset}
		if len(v.ids) > 0 || v.reset || wait == 0 {
			for _, id := range v.ids {
				if j := s.lookup(id); j != nil {
					resp.Jobs = append(resp.Jobs, Completion{Key: j.key, JobStatus: j.snapshot()})
				}
			}
			s.writeJSON(w, http.StatusOK, resp)
			return
		}
		c.waiters.Add(1)
		select {
		case <-v.wake:
		case <-expired.C:
			wait = 0
		case <-r.Context().Done():
			c.waiters.Add(-1)
			return
		}
		c.waiters.Add(-1)
	}
}
