package obs

import (
	"strings"
	"testing"
)

func TestPromWriterRoundTrip(t *testing.T) {
	var p PromWriter
	p.Counter("jobs_total", "Jobs.", 3)
	p.Gauge("up", "Up.", Flag(true))
	p.Family("state", "gauge", "Per-worker state.")
	p.Sample("state", 2, "worker", `http://a"b`, "reason", "quota")
	h := NewHistogram([]float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(3)
	p.Family("wait_seconds", "histogram", "Wait.")
	p.Histogram("wait_seconds", h.Snapshot(), "tenant", "t1")
	p.Family("lag_seconds", "histogram", "Lag.")
	p.Histogram("lag_seconds", NewHistogram([]float64{1}).Snapshot())
	var b strings.Builder
	if _, err := p.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP jobs_total Jobs.
# TYPE jobs_total counter
jobs_total 3
# HELP up Up.
# TYPE up gauge
up 1
# HELP state Per-worker state.
# TYPE state gauge
state{worker="http://a\"b",reason="quota"} 2
# HELP wait_seconds Wait.
# TYPE wait_seconds histogram
wait_seconds_bucket{tenant="t1",le="0.5"} 1
wait_seconds_bucket{tenant="t1",le="1"} 1
wait_seconds_bucket{tenant="t1",le="+Inf"} 2
wait_seconds_sum{tenant="t1"} 3.25
wait_seconds_count{tenant="t1"} 2
# HELP lag_seconds Lag.
# TYPE lag_seconds histogram
lag_seconds_bucket{le="1"} 0
lag_seconds_bucket{le="+Inf"} 0
lag_seconds_sum 0
lag_seconds_count 0
`
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}

	exp, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(exp) != 5 || exp[3].Name != "wait_seconds" || exp[3].Type != "histogram" || exp[3].Help != "Wait." {
		t.Fatalf("families: %+v", exp)
	}
	if s := exp[2].Samples[0]; s.Name != "state" || len(s.Labels) != 2 ||
		s.Labels[0] != (Label{"worker", `http://a"b`}) || s.Labels[1] != (Label{"reason", "quota"}) {
		t.Fatalf("labelled sample: %+v", s)
	}
	v := exp.Values()
	for series, want := range map[string]float64{
		"jobs_total": 3, `state{worker="http://a\"b",reason="quota"}`: 2,
		`wait_seconds_bucket{tenant="t1",le="+Inf"}`: 2, `wait_seconds_sum{tenant="t1"}`: 3.25, "lag_seconds_count": 0,
	} {
		if got, ok := v[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
}

func TestParseExpositionRejects(t *testing.T) {
	const head = "# HELP a A.\n# TYPE a counter\n"
	for name, text := range map[string]string{
		"bad value":                head + "a one\n",
		"unquoted label":           head + "a{k=v} 1\n",
		"missing value":            head + "a\n",
		"sample before family":     "a 1\n" + head,
		"HELP without TYPE":        "# HELP a A.\na 1\n",
		"TYPE without HELP":        "# TYPE a counter\na 1\n",
		"family declared twice":    head + "a 1\n" + head,
		"TYPE of another family":   "# HELP a A.\n# TYPE b counter\n",
		"sample of another family": head + "b 1\n",
		"counter with a bucket":    head + "a_bucket{le=\"1\"} 1\n",
		"histogram without suffix": "# HELP h H.\n# TYPE h histogram\nh 1\n",
	} {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
}
