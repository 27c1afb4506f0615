package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRingOrderAndWrap(t *testing.T) {
	var clock uint64
	r := NewRing(3, 4, &clock) // 16 slots
	for i := 0; i < 40; i++ {
		clock = uint64(100 + i)
		r.Emit(EvLL, uint32(i), 0)
	}
	if got := r.Len(); got != 16 {
		t.Fatalf("Len = %d, want 16", got)
	}
	if got := r.Dropped(); got != 24 {
		t.Fatalf("Dropped = %d, want 24", got)
	}
	evs := r.Events()
	if len(evs) != 16 {
		t.Fatalf("Events len = %d, want 16", len(evs))
	}
	for i, e := range evs {
		wantAddr := uint32(24 + i)
		if e.Addr != wantAddr || e.VT != uint64(124+i) || e.TID != 3 {
			t.Fatalf("event %d = %+v, want addr=%d vt=%d tid=3", i, e, wantAddr, 124+i)
		}
		if i > 0 && evs[i].VT < evs[i-1].VT {
			t.Fatalf("events out of order at %d: %d < %d", i, evs[i].VT, evs[i-1].VT)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(0, 6, nil)
	r.EmitAt(5, EvCheckpoint, 0, 7)
	r.EmitAt(9, EvRestore, 0, 1)
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 2 || evs[0].Kind != EvCheckpoint || evs[1].Kind != EvRestore {
		t.Fatalf("Events = %+v", evs)
	}
	if evs[0].VT != 5 || evs[1].VT != 9 {
		t.Fatalf("VTs = %d,%d want 5,9", evs[0].VT, evs[1].VT)
	}
}

func TestNilRingSafe(t *testing.T) {
	var r *Ring
	r.Emit(EvLL, 1, 2)
	r.EmitAt(3, EvSCOk, 1, 2)
	if r.Len() != 0 || r.Dropped() != 0 || r.Events() != nil {
		t.Fatal("nil ring must be inert")
	}
}

func TestKindAndReasonNames(t *testing.T) {
	for k := EvNone; k <= EvRestore; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind should be unknown")
	}
	for r := SCNoMonitor; r <= SCTxnDoomed; r++ {
		if SCReasonString(r) == "unknown" {
			t.Fatalf("sc reason %d has no name", r)
		}
	}
	if SCReasonString(0) != "unknown" || SCReasonString(99) != "unknown" {
		t.Fatal("unnamed reasons should be unknown")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 50, 500} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	want := []uint64{2, 3, 4, 5} // cumulative: <=1, <=10, <=100, +Inf
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}
	if s.Sum != 556.2 {
		t.Fatalf("Sum = %v, want 556.2", s.Sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				h.Observe(1.5)
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	s := h.Snapshot()
	if s.Count != 4000 || s.Buckets[1] != 4000 || s.Sum != 6000 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestWriteJSONL(t *testing.T) {
	events := []Event{
		{VT: 10, TID: 1, Kind: EvLL, Addr: 0x400},
		{VT: 20, TID: 2, Kind: EvSCFail, Addr: 0x400, Arg: SCHashStolen},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
	}
	if !strings.Contains(lines[1], `"reason":"hash_stolen"`) {
		t.Fatalf("sc_fail line missing reason: %q", lines[1])
	}
}

func TestWriteChromeTrace(t *testing.T) {
	events := []Event{
		{VT: 10, TID: 1, Kind: EvExclEnter},
		{VT: 12, TID: 1, Kind: EvSCFail, Addr: 0x400, Arg: SCNoMonitor},
		{VT: 15, TID: 1, Kind: EvExclExit},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v\n%s", err, buf.String())
	}
	if len(arr) != 3 {
		t.Fatalf("got %d entries, want 3", len(arr))
	}
	if arr[0]["ph"] != "B" || arr[2]["ph"] != "E" {
		t.Fatalf("exclusive section not rendered as B/E: %v", arr)
	}
}

// BenchmarkNilEmit measures the disabled-path cost of an emit site: one
// nil check. The perf guard in internal/engine asserts this stays within
// noise.
func BenchmarkNilEmit(b *testing.B) {
	var r *Ring
	for i := 0; i < b.N; i++ {
		r.Emit(EvSCOk, uint32(i), 0)
	}
}
