package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// (an iteration, a job) form a tree through Parent; Lane groups a tree on one
// row of the Chrome trace viewer.
type span struct {
	ID     int
	Parent int // 0 for a root
	Name   string
	Lane   int
	Start  time.Duration // since the tracer started
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op on it, so workloads call it
// unconditionally and the two runs share one code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent, lane int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Lane: lane, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were observed elsewhere (timestamps the
// service reports about a job).
func (t *tracer) add(parent, lane int, name string, start, end time.Time) int {
	if t == nil || start.IsZero() || end.IsZero() || end.Before(start) {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Lane: lane, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans)
}

// closed returns the finished spans.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once, children are clipped to the parent).
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		var covered time.Duration
		edge := s.Start
		for _, c := range ch {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// selfByName sums self time and counts spans per span name.
func selfByName(spans []span) (self map[string]time.Duration, count map[string]int) {
	st := selfTimes(spans)
	self = make(map[string]time.Duration)
	count = make(map[string]int)
	for _, s := range spans {
		self[s.Name] += st[s.ID]
		count[s.Name]++
	}
	return self, count
}

// writeChromeTrace writes spans in the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev).
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Lane,
			TS:   us(s.Start),
			Dur:  us(s.End - s.Start),
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
