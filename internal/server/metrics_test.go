package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"atomemu/internal/obs"
)

func scrape(t *testing.T, s *Server) string {
	t.Helper()
	var b bytes.Buffer
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func checkExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	exp, err := obs.ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return exp.Values()
}

func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	for _, scheme := range []string{"pico-cas", "hst"} {
		id, err := s.Submit(JobRequest{Scheme: scheme, GAC: counterGAC, Threads: 2, Arg: 200})
		if err != nil {
			t.Fatal(err)
		}
		if st := awaitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("%s job: state=%s err=%q", scheme, st.State, st.Error)
		}
	}
	samples := checkExposition(t, scrape(t, s))

	if got := samples["atomemu_jobs_completed_total"]; got != 2 {
		t.Fatalf("jobs_completed_total = %v, want 2", got)
	}
	for _, name := range []string{
		"atomemu_jobs_accepted_total", "atomemu_jobs_shed_total",
		"atomemu_queue_length", "atomemu_queue_capacity", "atomemu_draining",
		"atomemu_engine_scs_total", "atomemu_engine_sc_fails_total",
		"atomemu_engine_lls_total", "atomemu_engine_guest_instrs_total",
		"atomemu_compile_cache_hits_total", "atomemu_compile_cache_misses_total", "atomemu_compile_cache_bytes",
		"atomemu_tbstore_hits_total", "atomemu_tbstore_misses_total", "atomemu_tbstore_publishes_total",
		"atomemu_tbstore_evictions_total", "atomemu_tbstore_invalidations_total",
		"atomemu_tbstore_blocks", "atomemu_tbstore_segments",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("missing series %s", name)
		}
	}
	// One source under two schemes: compiled for each, kept from the second.
	if samples["atomemu_compile_cache_misses_total"] != 2 || samples["atomemu_compile_cache_bytes"] == 0 {
		t.Errorf("compile cache series: misses=%v bytes=%v, want 2 and > 0",
			samples["atomemu_compile_cache_misses_total"], samples["atomemu_compile_cache_bytes"])
	}
	if samples["atomemu_engine_scs_total"] == 0 {
		t.Error("engine SC counter did not accumulate across jobs")
	}
	// Per-scheme latency histograms: each scheme ran exactly one job, so
	// its +Inf bucket and _count must both be 1 and agree.
	for _, scheme := range []string{"pico-cas", "hst"} {
		for _, hist := range []string{"atomemu_job_wall_seconds", "atomemu_job_virtual_cycles"} {
			inf := fmt.Sprintf(`%s_bucket{scheme="%s",le="+Inf"}`, hist, scheme)
			cnt := fmt.Sprintf(`%s_count{scheme="%s"}`, hist, scheme)
			if samples[inf] != 1 || samples[cnt] != 1 {
				t.Errorf("%s{%s}: +Inf=%v count=%v, want 1/1", hist, scheme, samples[inf], samples[cnt])
			}
		}
	}
	// Breaker gauges exist for every scheme and are all closed (0).
	if v, ok := samples[`atomemu_breaker_state{scheme="pico-cas"}`]; !ok || v != 0 {
		t.Errorf("breaker_state{pico-cas} = %v, want 0", v)
	}
}

func TestMetricsBreakerOpenGauge(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, BreakerThreshold: 2, BreakerCooldown: time.Hour})
	wedged := JobRequest{Scheme: "pico-cas", GAC: wedgedGAC,
		Config: JobConfig{WatchdogSCFails: 200}}
	for i := 0; i < 2; i++ {
		id, err := s.Submit(wedged)
		if err != nil {
			t.Fatal(err)
		}
		awaitTerminal(t, s, id)
	}
	samples := checkExposition(t, scrape(t, s))
	if got := samples[`atomemu_breaker_state{scheme="pico-cas"}`]; got != 1 {
		t.Fatalf("breaker_state{pico-cas} = %v, want 1 (open)", got)
	}
	if got := samples["atomemu_breaker_trips_total"]; got != 1 {
		t.Fatalf("breaker_trips_total = %v, want 1", got)
	}
	if got := samples["atomemu_jobs_failed_total"]; got != 2 {
		t.Fatalf("jobs_failed_total = %v, want 2", got)
	}
}

// TestReadEndpointsRejectNonGET covers the hygiene fix: the read-only
// endpoints used to run their handlers for any method.
func TestReadEndpointsRejectNonGET(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/healthz", "/readyz", "/statz", "/metrics", "/completions", "/jobs/nope"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405", method, path, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
				t.Errorf("%s %s Allow header = %q, want GET", method, path, allow)
			}
		}
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusMethodNotAllowed {
			t.Errorf("GET %s rejected with 405", path)
		}
	}
}

func TestMetricsContentType(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); !strings.Contains(got, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text exposition 0.0.4", got)
	}
	body, _ := io.ReadAll(resp.Body)
	checkExposition(t, string(body))
}

// TestWriteJSONLogsEncodeError: an unencodable value used to be silently
// dropped, leaving the client a 200 with an empty body and no trace.
func TestWriteJSONLogsEncodeError(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Options{Workers: 1, Logger: log.New(&buf, "", 0)})
	rec := httptest.NewRecorder()
	s.reply.JSON(rec, http.StatusOK, map[string]any{"bad": make(chan int)})
	if !strings.Contains(buf.String(), "encoding 200 response") {
		t.Fatalf("encode failure not logged; log output: %q", buf.String())
	}
}

// TestMetricsChurnRace hammers /statz and /metrics while jobs submit,
// run, fail (tripping a breaker), and the server finally drains — meant
// to run under -race. Histogram counts must be monotonic across scrapes.
func TestMetricsChurnRace(t *testing.T) {
	s, err := New(Options{Workers: 4, QueueDepth: 64,
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
		Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Submitters: healthy jobs on two schemes plus wedged pico-st jobs
	// that trip its breaker mid-churn.
	ids := make(chan string, 256)
	for _, req := range []JobRequest{
		{Scheme: "pico-cas", GAC: counterGAC, Threads: 2, Arg: 100},
		{Scheme: "hst", GAC: counterGAC, Threads: 2, Arg: 100},
		{Scheme: "pico-st", GAC: wedgedGAC, Config: JobConfig{WatchdogSCFails: 200}},
	} {
		wg.Add(1)
		go func(req JobRequest) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if id, err := s.Submit(req); err == nil {
					ids <- id
				}
				time.Sleep(time.Millisecond)
			}
		}(req)
	}

	// Scrapers: poll both endpoints, checking exposition validity and
	// that cumulative counts never go backwards. Failures are funneled to
	// the test goroutine (Fatalf must not run on these goroutines), and
	// polling is throttled so the workers keep CPU under -race.
	scrapeErrs := make(chan error, 8)
	var scrapeWG sync.WaitGroup
	for _, path := range []string{"/statz", "/metrics"} {
		scrapeWG.Add(1)
		go func(path string) {
			defer scrapeWG.Done()
			var lastCompleted, lastWall float64
			for {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(5 * time.Millisecond)
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if path != "/metrics" {
					continue
				}
				exp, err := obs.ParseExposition(bytes.NewReader(body))
				if err != nil {
					scrapeErrs <- err
					return
				}
				samples := exp.Values()
				if v := samples["atomemu_jobs_completed_total"]; v < lastCompleted {
					scrapeErrs <- fmt.Errorf("jobs_completed_total went backwards: %v after %v", v, lastCompleted)
					return
				} else {
					lastCompleted = v
				}
				var wall float64
				for k, v := range samples {
					if strings.HasPrefix(k, "atomemu_job_wall_seconds_count") {
						wall += v
					}
				}
				if wall < lastWall {
					scrapeErrs <- fmt.Errorf("wall histogram count went backwards: %v after %v", wall, lastWall)
					return
				}
				lastWall = wall
			}
		}(path)
	}

	// Wait for every submitted job, then drain under scrape load.
	go func() {
		wg.Wait()
		close(ids)
	}()
	for id := range ids {
		awaitTerminal(t, s, id)
	}
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Errorf("drain: %v", err)
	}
	close(stop)
	scrapeWG.Wait()
	close(scrapeErrs)
	for err := range scrapeErrs {
		t.Error(err)
	}

	samples := checkExposition(t, scrape(t, s))
	if samples["atomemu_jobs_completed_total"] < 12 {
		t.Errorf("completed = %v, want ≥12 healthy jobs", samples["atomemu_jobs_completed_total"])
	}
	if samples["atomemu_breaker_trips_total"] < 1 {
		t.Errorf("breaker never tripped under churn")
	}
}
