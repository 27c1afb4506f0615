package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"atomemu/internal/durable"
)

// TestDefaultOptionsIsWithDefaultsFixedPoint: a zero Options and
// DefaultOptions normalize to the same policy, so atomemud's flag defaults
// (which read DefaultOptions) cannot drift from what an embedder gets.
func TestDefaultOptionsIsWithDefaultsFixedPoint(t *testing.T) {
	strip := func(o Options) Options {
		o.Logger = nil
		return o
	}
	def := strip(DefaultOptions())
	if got := strip(Options{}.withDefaults()); !reflect.DeepEqual(got, def) {
		t.Errorf("Options{}.withDefaults()\n got  %+v\n want %+v", got, def)
	}
	if got := strip(DefaultOptions().withDefaults()); !reflect.DeepEqual(got, def) {
		t.Errorf("DefaultOptions().withDefaults() moved\n got  %+v\n want %+v", got, def)
	}
}

// TestBreakerThresholdZeroDefaultsNegativeDisables: a negative threshold
// never routes a failing scheme to hst, and 0 takes the default of 3.
func TestBreakerThresholdZeroDefaultsNegativeDisables(t *testing.T) {
	wedged := JobRequest{Scheme: "pico-cas", GAC: wedgedGAC, Config: JobConfig{WatchdogSCFails: 200}}
	healthy := JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 10}
	run := func(t *testing.T, s *Server, req JobRequest) JobStatus {
		t.Helper()
		id, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return awaitTerminal(t, s, id)
	}

	t.Run("negative", func(t *testing.T) {
		s := newTestServer(t, Options{Workers: 1, BreakerThreshold: -1})
		for i := 0; i < 5; i++ {
			if st := run(t, s, wedged); st.State != StateFailed || st.SchemeEffective != "pico-cas" {
				t.Fatalf("wedged job %d: state=%s effective=%s", i, st.State, st.SchemeEffective)
			}
		}
		if st := run(t, s, healthy); st.State != StateDone || st.SchemeEffective != "pico-cas" || st.Demoted {
			t.Fatalf("disabled breaker demoted a job: state=%s effective=%s demoted=%v", st.State, st.SchemeEffective, st.Demoted)
		}
		if m := s.Metrics(); m.BreakerTrips != 0 || m.Demoted != 0 {
			t.Fatalf("disabled breaker: trips=%d demoted=%d, want 0/0", m.BreakerTrips, m.Demoted)
		}
	})

	t.Run("zero", func(t *testing.T) {
		s := newTestServer(t, Options{Workers: 1})
		for i := 1; i <= 3; i++ {
			if st := run(t, s, wedged); st.State != StateFailed {
				t.Fatalf("wedged job %d: state=%s", i, st.State)
			}
			want := uint64(0)
			if i == 3 {
				want = 1
			}
			if got := s.Metrics().BreakerTrips; got != want {
				t.Fatalf("after %d failures: breaker trips = %d, want %d", i, got, want)
			}
		}
		if st := run(t, s, healthy); st.State != StateDone || st.SchemeEffective != "hst" || !st.Demoted {
			t.Fatalf("open breaker did not demote: state=%s effective=%s demoted=%v", st.State, st.SchemeEffective, st.Demoted)
		}
	})
}

// retiredConfig carries the JobConfig fields that translation tuning used
// to expose to tenants. Old clients and old journals may still send them.
const retiredConfig = `"config":{"tiered":true,"chain_budget":8,"hot_threshold":4,"fuse_atomics":true}`

// retiredRequest is a counter job whose config carries the retired fields.
func retiredRequest(t *testing.T) []byte {
	t.Helper()
	src, err := json.Marshal(counterGAC)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(`{"scheme":"hst","arg":300,"gac":` + string(src) + `,` + retiredConfig + `}`)
}

// TestRetiredJobConfigFieldsAccepted: a live submission carrying the
// retired fields is admitted and runs exactly like the plain request.
func TestRetiredJobConfigFieldsAccepted(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, SharedTBCacheBlocks: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(retiredRequest(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs with retired fields = %d, want 202", resp.StatusCode)
	}
	var ack struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || ack.ID == "" {
		t.Fatalf("ack: %+v, %v", ack, err)
	}
	old := awaitTerminal(t, s, ack.ID)

	id, err := s.Submit(JobRequest{Scheme: "hst", GAC: counterGAC, Arg: 300})
	if err != nil {
		t.Fatal(err)
	}
	plain := awaitTerminal(t, s, id)
	if old.State != StateDone || !reflect.DeepEqual(old.Output, plain.Output) {
		t.Fatalf("retired-field job: state=%s output=%v err=%q, want done with %v", old.State, old.Output, old.Error, plain.Output)
	}
	if old.VirtualTime != plain.VirtualTime || old.GuestInstrs != plain.GuestInstrs {
		t.Fatalf("retired fields changed the run: vtime %d vs %d, instrs %d vs %d",
			old.VirtualTime, plain.VirtualTime, old.GuestInstrs, plain.GuestInstrs)
	}
}

// TestReplayAcceptsRetiredJobConfigFields: a journal written before the
// fields were retired still recovers; the accepted job runs to done.
func TestReplayAcceptsRetiredJobConfigFields(t *testing.T) {
	dir := t.TempDir()
	crashedJobJournal(t, dir, []durable.Record{
		{Type: durable.TypeSubmitted, Job: "job-1", Request: retiredRequest(t)},
	})
	s := newTestServer(t, Options{Workers: 1, DataDir: dir})
	if m := s.Metrics(); m.RestartRequeued != 1 || m.JournalCorrupt != 0 {
		t.Fatalf("replay: requeued=%d corrupt=%d, want 1/0", m.RestartRequeued, m.JournalCorrupt)
	}
	st := awaitTerminal(t, s, "job-1")
	if st.State != StateDone || len(st.Output) != 1 || st.Output[0] != 300 {
		t.Fatalf("replayed job: state=%s output=%v err=%q, want done with [300]", st.State, st.Output, st.Error)
	}
}
