package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
)

// loadSamples reads what `bench all` wrote — one out/result.json, or any
// number of out/history.jsonl lines — into samples per metric@workload.
// A history file with several lines of one commit gives compare the
// run-to-run spread it needs to call a metric resolved.
func loadSamples(path string) (map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]float64)
	add := func(m map[string]float64) {
		for k, v := range m {
			out[k] = append(out[k], v)
		}
	}
	var one benchResult
	if err := json.Unmarshal(data, &one); err == nil && len(one.Runs) > 0 {
		add(one.flatten())
		return out, nil
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 16<<20)
	for n := 1; sc.Scan(); n++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line historyLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s line %d: neither a result.json nor a history.jsonl line: %w", path, n, err)
		}
		add(line.Metrics)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no results", path)
	}
	return out, nil
}

// verdict of one metric@workload between a base and a candidate.
type verdict struct {
	Key      string
	Base     float64
	Cand     float64
	Worse    float64 // by how much the candidate is worse, as the bound is expressed (negative: better)
	Bound    float64
	Spread   float64 // widest interquartile spread of either side as a share of its median; 0 with under 4 samples
	Samples  int     // fewest samples on a side
	Verdict  string  // better, worse, within-bound, unresolved; agree or unresolved under `agree`
	Exactly  bool    // the bound is "must repeat exactly"
	Absolute bool
}

// judge compares one end-to-end metric on one workload. sameCode is `bench
// agree`: both sides are the same commit, so a difference beyond the bound
// is not a regression but a metric the benchmark cannot resolve.
func judge(m e2eMetric, w string, base, cand []float64, sameCode bool) verdict {
	v := verdict{Key: m.Name + "@" + w, Base: median(base), Cand: median(cand), Bound: m.boundOn(w),
		Absolute: m.Absolute, Samples: min(len(base), len(cand))}
	if v.Samples >= 4 {
		v.Spread = math.Max(spread(base), spread(cand))
	}
	switch {
	case v.Bound == exact:
		v.Exactly, v.Bound = true, 0
		if v.Cand != v.Base {
			v.Worse = math.Inf(1)
		}
	case m.Absolute && m.Higher:
		v.Worse = v.Base - v.Cand
	case m.Absolute:
		v.Worse = v.Cand - v.Base
	case v.Base == 0:
		// no share of zero; only an unchanged zero is within any bound
		if v.Cand != 0 {
			v.Worse = math.Inf(1)
		}
	case m.Higher:
		v.Worse = (v.Base - v.Cand) / math.Abs(v.Base)
	default:
		v.Worse = (v.Cand - v.Base) / math.Abs(v.Base)
	}
	switch {
	case sameCode && math.Abs(v.Worse) <= v.Bound && v.Spread <= v.Bound:
		v.Verdict = "agree"
	case sameCode:
		v.Verdict = "unresolved"
	case v.Spread > v.Bound && !v.Absolute && !disjoint(base, cand):
		// Wider run-to-run spread than the bound: the metric cannot tell a
		// regression of that size from noise, unless every run of one side
		// beats every run of the other.
		v.Verdict = "unresolved"
	case v.Worse > v.Bound:
		v.Verdict = "worse"
	case v.Worse < -v.Bound || (v.Exactly && v.Worse < 0):
		v.Verdict = "better"
	default:
		v.Verdict = "within-bound"
	}
	return v
}

// disjoint reports whether every value of one side lies beyond every value
// of the other.
func disjoint(a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	return sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0]
}

func cmdCompare(mode string, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench %s A.json B.json (out/result.json files or history.jsonl extracts)", mode)
	}
	base, err := loadSamples(args[0])
	if err != nil {
		return err
	}
	cand, err := loadSamples(args[1])
	if err != nil {
		return err
	}
	var verdicts []verdict
	var missing []string
	for _, m := range e2eMetrics() {
		for _, w := range m.On {
			key := m.Name + "@" + w
			b, c := base[key], cand[key]
			if len(b) == 0 || len(c) == 0 {
				missing = append(missing, key)
				continue
			}
			verdicts = append(verdicts, judge(m, w, b, c, mode == "agree"))
		}
	}
	counts := make(map[string]int)
	fmt.Printf("%-34s %14s %14s %10s %8s %8s  %s\n", "metric@workload", "A", "B", "worse by", "bound", "spread", "verdict")
	for _, v := range verdicts {
		counts[v.Verdict]++
		by, bound := fmt.Sprintf("%+.2f%%", 100*v.Worse), fmt.Sprintf("%.1f%%", 100*v.Bound)
		switch {
		case v.Exactly:
			by, bound = "-", "exact"
			if v.Cand != v.Base {
				by = "differs"
			}
		case v.Absolute:
			by, bound = fmt.Sprintf("%+.4f", v.Worse), fmt.Sprintf("%.4f", v.Bound)
		}
		sp := "n<4"
		if v.Samples >= 4 {
			sp = fmt.Sprintf("%.1f%%", 100*v.Spread)
		}
		fmt.Printf("%-34s %14.6g %14.6g %10s %8s %8s  %s\n", v.Key, v.Base, v.Cand, by, bound, sp, v.Verdict)
	}
	var parts []string
	for _, k := range slices.Sorted(maps.Keys(counts)) {
		parts = append(parts, fmt.Sprintf("%d %s", counts[k], k))
	}
	fmt.Println(strings.Join(parts, ", "))
	if len(verdicts) == 0 {
		return fmt.Errorf("the two files share no end-to-end metric")
	}
	if len(missing) > 0 {
		return fmt.Errorf("measured on one side only: %s", strings.Join(missing, ", "))
	}
	if mode == "agree" && counts["unresolved"] > 0 {
		return fmt.Errorf("%d metrics do not repeat within their bound", counts["unresolved"])
	}
	if counts["worse"] > 0 {
		return fmt.Errorf("%d metrics are worse by more than their bound", counts["worse"])
	}
	return nil
}
