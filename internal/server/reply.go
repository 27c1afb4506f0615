package server

import (
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"strconv"
	"time"
)

// SubmitError is a submission failure with its HTTP status: 400 for bad
// requests, 429 for shed load, 503 while draining or recovering. ID is set
// on a keyed shed: the id under which GET /jobs/{id} will answer "shed".
// RetryAfter, when nonzero, is the Retry-After hint in seconds — for 429s
// it is derived from the current queue depth and the worker pool's
// measured drain rate, so clients back off proportionally to the actual
// backlog instead of hammering a full queue.
type SubmitError struct {
	Status     int
	Msg        string
	ID         string
	RetryAfter int
}

func (e *SubmitError) Error() string { return e.Msg }

// FinishWindow measures a completion rate for a Retry-After hint: jobs per
// second over the last 32 finishes, from the oldest of them to now. Using
// now as the right edge makes the rate decay while nothing finishes: a
// stalled pool reports an ever-lower rate, not its last good one. One
// finish is evidence; a span under 50 ms counts as 50 ms, so a burst of
// finishes cannot claim an unbounded rate. The zero value is empty, and it
// is not safe for concurrent use.
type FinishWindow struct {
	ring [32]time.Time
	n    int
}

// Note records one finish at t.
func (w *FinishWindow) Note(t time.Time) {
	w.ring[w.n%len(w.ring)] = t
	w.n++
}

// Rate is the measured jobs per second at now; 0 means no evidence.
func (w *FinishWindow) Rate(now time.Time) float64 {
	n := min(w.n, len(w.ring))
	if n == 0 {
		return 0
	}
	oldest := now
	for _, t := range w.ring[:n] {
		if t.Before(oldest) {
			oldest = t
		}
	}
	return float64(n) / max(now.Sub(oldest), 50*time.Millisecond).Seconds()
}

// Reply is the HTTP reply layer atomemud and atomemu-router both answer
// through: JSON bodies, {"error": msg} errors, the one-method guard, and
// the mapping from an error to its status, Retry-After and body. Name
// prefixes the lines it logs to Log.
type Reply struct {
	Name string
	Log  *log.Logger
}

// JSON encodes v as the response. Encode errors (a closed connection, or
// an unencodable value — a bug) are logged, so neither is silent.
func (rp Reply) JSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		rp.Log.Printf("%s: encoding %d response: %v", rp.Name, code, err)
	}
}

// Error replies {"error": msg}.
func (rp Reply) Error(w http.ResponseWriter, code int, msg string) {
	rp.JSON(w, code, map[string]string{"error": msg})
}

// Fail replies with err: a *SubmitError's status, its Retry-After hint
// and, on a keyed shed, the shed job's id; any other error is a 500.
func (rp Reply) Fail(w http.ResponseWriter, err error) {
	var se *SubmitError
	if !errors.As(err, &se) {
		se = &SubmitError{Status: http.StatusInternalServerError, Msg: err.Error()}
	}
	if se.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(se.RetryAfter))
	}
	if se.ID != "" {
		// Keyed shed: hand back the id so the client can GET the distinct
		// "shed" answer (and retry the key later).
		rp.JSON(w, se.Status, map[string]string{"error": se.Msg, "id": se.ID, "reason": "shed"})
		return
	}
	rp.Error(w, se.Status, se.Msg)
}

// Jobs serves /jobs. POST decodes a JobRequest, submits it and answers
// 202 {id, state}: state asks again, because an idempotent re-submit names
// a job that may have moved past queued. GET answers list().
func (rp Reply) Jobs(submit func(JobRequest) (string, error), state func(id string) string, list func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			var req JobRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				rp.Error(w, http.StatusBadRequest, "bad json: "+err.Error())
				return
			}
			id, err := submit(req)
			if err != nil {
				rp.Fail(w, err)
				return
			}
			rp.JSON(w, http.StatusAccepted, map[string]string{"id": id, "state": state(id)})
		case http.MethodGet:
			rp.JSON(w, http.StatusOK, list())
		default:
			rp.Error(w, http.StatusMethodNotAllowed, "use GET or POST")
		}
	}
}

// Only answers every method but method with a 405 naming it in Allow.
func (rp Reply) Only(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			rp.Error(w, http.StatusMethodNotAllowed, "use "+method)
			return
		}
		h(w, r)
	}
}

// Metrics serves the text exposition write renders (GET /metrics).
func (rp Reply) Metrics(write func(io.Writer) error) http.HandlerFunc {
	return rp.Only(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := write(w); err != nil {
			rp.Log.Printf("%s: writing /metrics: %v", rp.Name, err)
		}
	})
}
