package router

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"atomemu/internal/server"
)

// WorkerView is the wire representation of one worker's health.
type WorkerView struct {
	URL         string    `json:"url"`
	State       string    `json:"state"` // healthy | suspect | down
	OnRing      bool      `json:"on_ring"`
	ConsecFails int       `json:"consec_fails,omitempty"`
	LastError   string    `json:"last_error,omitempty"`
	LastProbe   time.Time `json:"last_probe,omitempty"`
	Queued      int       `json:"queued"`
	QueueDepth  int       `json:"queue_depth"`
	Accepted    uint64    `json:"accepted"`
	Completed   uint64    `json:"completed"`
	Shed        uint64    `json:"shed"`
	Warmth      int       `json:"warmth"`
	WatchLive   bool      `json:"watch_live"`
	Dispatched  uint64    `json:"dispatched"`
	Downs       uint64    `json:"downs"`
	Rejoins     uint64    `json:"rejoins"`
}

// Workers returns every worker's health view, sorted by URL.
func (r *Router) Workers() []WorkerView {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerView, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, WorkerView{
			URL: w.url, State: w.state.String(), OnRing: w.state != stateDown,
			ConsecFails: w.consecFails, LastError: w.lastErr, LastProbe: w.lastProbe,
			Queued: w.queued, QueueDepth: w.queueDepth,
			Accepted: w.accepted, Completed: w.completed, Shed: w.shed,
			Warmth: w.warmth, WatchLive: w.watchLive,
			Dispatched: w.dispatched, Downs: w.downs, Rejoins: w.rejoins,
		})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].URL < out[k].URL })
	return out
}

// TenantView is the wire representation of one tenant's scheduling state.
type TenantView struct {
	Name      string `json:"name"`
	Weight    int    `json:"weight"`
	Quota     int    `json:"quota"` // -1 = unbounded
	Live      int    `json:"live"`
	Queued    int    `json:"queued"`
	Inflight  int    `json:"inflight"`
	Admitted  uint64 `json:"admitted"`
	ShedQuota uint64 `json:"shed_quota"`
	ShedRoute uint64 `json:"shed_route"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
}

// Tenants returns every tenant's view, sorted by name.
func (r *Router) Tenants() []TenantView {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TenantView, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, TenantView{
			Name: t.name, Weight: t.weight, Quota: t.quota,
			Live: t.live, Queued: len(t.queue), Inflight: t.inflight,
			Admitted: t.admitted, ShedQuota: t.shedQuota, ShedRoute: t.shedDispatch,
			Completed: t.completed, Failed: t.failed,
		})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// ringSize reports live ring membership.
func (r *Router) ringSize() int { return r.ring.size() }

func (r *Router) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		r.opts.Logger.Printf("router: encoding response: %v", err)
	}
}

func (r *Router) httpError(w http.ResponseWriter, code int, msg string) {
	r.writeJSON(w, code, map[string]string{"error": msg})
}

// Handler returns the router's HTTP API:
//
//	POST /jobs          submit → 202 {id, state} | 400 | 429 quota or route
//	                    shed (Retry-After) | 503 draining
//	GET  /jobs          list router job views
//	GET  /jobs/{id}     one job's view, live-proxying the worker status
//	                    for dispatched jobs (a terminal one finalizes the
//	                    job) → 200 | 404
//	GET  /workers       per-worker health views
//	GET  /healthz       liveness (200 while the process serves)
//	GET  /readyz        routability → 200 | 503 draining or no live workers
//	GET  /statz         tenants + workers + journal stats
//	GET  /metrics       Prometheus text exposition
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, req *http.Request) {
		switch req.Method {
		case http.MethodPost:
			var jr server.JobRequest
			if err := json.NewDecoder(req.Body).Decode(&jr); err != nil {
				r.httpError(w, http.StatusBadRequest, "bad json: "+err.Error())
				return
			}
			id, err := r.Submit(jr)
			if err != nil {
				se, ok := err.(*server.SubmitError)
				if !ok {
					se = &server.SubmitError{Status: http.StatusInternalServerError, Msg: err.Error()}
				}
				if se.RetryAfter > 0 {
					w.Header().Set("Retry-After", strconv.Itoa(se.RetryAfter))
				}
				r.httpError(w, se.Status, se.Msg)
				return
			}
			state := string(jobQueued)
			if v, ok := r.Status(id); ok {
				state = string(v.State)
			}
			r.writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": state})
		case http.MethodGet:
			r.writeJSON(w, http.StatusOK, r.Jobs())
		default:
			r.httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
		}
	})
	mux.HandleFunc("/jobs/", r.getOnly(func(w http.ResponseWriter, req *http.Request) {
		id := strings.TrimPrefix(req.URL.Path, "/jobs/")
		v, ok := r.Status(id)
		if !ok {
			r.httpError(w, http.StatusNotFound, "no such job "+id)
			return
		}
		r.writeJSON(w, http.StatusOK, v)
	}))
	mux.HandleFunc("/workers", r.getOnly(func(w http.ResponseWriter, req *http.Request) {
		r.writeJSON(w, http.StatusOK, r.Workers())
	}))
	mux.HandleFunc("/healthz", r.getOnly(func(w http.ResponseWriter, req *http.Request) {
		r.writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok", "draining": r.Draining(), "ring_workers": r.ringSize(),
		})
	}))
	mux.HandleFunc("/readyz", r.getOnly(func(w http.ResponseWriter, req *http.Request) {
		if r.Draining() {
			r.httpError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		n := r.ringSize()
		if n == 0 {
			w.Header().Set("Retry-After", "1")
			r.httpError(w, http.StatusServiceUnavailable, "no live workers on the ring")
			return
		}
		r.writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "ring_workers": n})
	}))
	mux.HandleFunc("/statz", r.getOnly(func(w http.ResponseWriter, req *http.Request) {
		r.writeJSON(w, http.StatusOK, map[string]any{
			"tenants": r.Tenants(), "workers": r.Workers(), "journal": r.JournalStats(),
		})
	}))
	mux.HandleFunc("/metrics", r.getOnly(r.handleMetrics))
	return mux
}

func (r *Router) getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			r.httpError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		h(w, req)
	}
}
