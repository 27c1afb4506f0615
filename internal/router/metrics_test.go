package router

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"atomemu/internal/obs"
	"atomemu/internal/server"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden exposition shapes")

// TestRouterReadEndpointsRejectNonGET is the router's twin of the
// server's test: every read-only endpoint answers other methods with a
// 405 that names GET in Allow.
func TestRouterReadEndpointsRejectNonGET(t *testing.T) {
	w := startWorker(t, server.Options{})
	r := newTestRouter(t, fastOptions(w.url()))
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	for _, path := range []string{"/jobs/nope", "/workers", "/healthz", "/readyz", "/statz", "/metrics"} {
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

// TestExpositionConformance holds both daemons' /metrics expositions to
// the text format and their series names and label keys, values masked,
// to testdata/{server,router}.golden: every series a dashboard could key
// on is still served. The worker has run two hst jobs, one of them
// failed; the router has run one tenant's job on a two-worker fleet.
func TestExpositionConformance(t *testing.T) {
	w1 := startWorker(t, server.Options{Workers: 1})
	w2 := startWorker(t, server.Options{})
	for _, tc := range []struct {
		req  server.JobRequest
		want server.JobState
	}{
		{server.JobRequest{Scheme: "hst", GAC: counterGAC, Threads: 2, Arg: 200}, server.StateDone},
		{server.JobRequest{Scheme: "hst", GAC: wedgedGAC, Config: server.JobConfig{WatchdogSCFails: 200}}, server.StateFailed},
	} {
		id, err := w1.srv.Submit(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		var st server.JobStatus
		awaitCond(t, 30*time.Second, "job "+id+" to finish", func() bool {
			st, _ = w1.srv.Status(id)
			return st.State.Terminal()
		})
		if st.State != tc.want {
			t.Fatalf("worker job %s: state=%s err=%q, want %s", id, st.State, st.Error, tc.want)
		}
	}
	checkExposition(t, scrape(t, w1.srv.WritePrometheus), "testdata/server.golden")

	r := newTestRouter(t, fastOptions(w1.url(), w2.url()))
	id, err := r.Submit(server.JobRequest{Scheme: "hst", GAC: counterGAC, Arg: 100, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if v := awaitRouterTerminal(t, r, id, 30*time.Second); v.State != jobDone {
		t.Fatalf("router job: state=%s err=%q", v.State, v.Error)
	}
	checkExposition(t, scrape(t, r.WritePrometheus), "testdata/router.golden")
}

// wedgedGAC can never succeed an SC, so the SC watchdog fails the job.
const wedgedGAC = `
var x;
var y;
func main(n) {
    while (1) {
        ll(&x);
        sc(&y, 1);
    }
}
`

// checkExposition checks what the reader alone does not: each histogram
// series' buckets never decrease and its +Inf bucket equals its _count.
// It then compares the series shapes, name{key,...}, with the golden file.
func checkExposition(t *testing.T, exp obs.Exposition, golden string) {
	t.Helper()
	shapes := map[string]bool{}
	for _, f := range exp {
		last, inf := map[string]float64{}, map[string]float64{} // by labels without le
		for _, s := range f.Samples {
			var keys []string
			var series, le string
			for _, l := range s.Labels {
				keys = append(keys, l.Key)
				if l.Key == "le" {
					le = l.Value
				} else {
					series += l.Key + "=" + l.Value + ","
				}
			}
			shape := s.Name
			if len(keys) > 0 {
				shape += "{" + strings.Join(keys, ",") + "}"
			}
			shapes[shape] = true
			switch {
			case f.Type != "histogram":
			case s.Name == f.Name+"_bucket":
				if s.Value < last[series] {
					t.Errorf("%s decreases: %v after %v", s.Series, s.Value, last[series])
				}
				last[series] = s.Value
				if le == "+Inf" {
					inf[series] = s.Value
				}
			case s.Name == f.Name+"_count":
				if v, ok := inf[series]; !ok || v != s.Value {
					t.Errorf("%s = %v, want its +Inf bucket (%v)", s.Series, s.Value, v)
				}
			}
		}
	}
	var got []string
	for shape := range shapes {
		got = append(got, shape)
	}
	sort.Strings(got)
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		t.Errorf("series differ from %s (rerun with -update only if the change is meant):\ngot:\n%swant:\n%s", golden, text, want)
	}
}

// scrape reads the exposition write renders, a router's or a worker's.
func scrape(t *testing.T, write func(io.Writer) error) obs.Exposition {
	t.Helper()
	var b bytes.Buffer
	if err := write(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(&b)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}
