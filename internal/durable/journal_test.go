package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testRecords(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, Record{
			Type:    TypeSubmitted,
			Job:     fmt.Sprintf("job-%d", i+1),
			Key:     fmt.Sprintf("key-%d", i+1),
			UnixMS:  int64(1000 + i),
			Request: json.RawMessage(fmt.Sprintf(`{"gac":"prog-%d"}`, i)),
		})
	}
	return recs
}

func writeJournal(t *testing.T, dir string, recs []Record) {
	t.Helper()
	j, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("expected one segment, got %v (err %v)", segs, err)
	}
	return filepath.Join(dir, segs[0].name)
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testRecords(5)
	writeJournal(t, dir, want)
	got, st, err := Replay(dir)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if st.CorruptRecords != 0 || st.Truncated != 0 {
		t.Fatalf("clean journal reported damage: %+v", st)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Job != want[i].Job || got[i].Key != want[i].Key || got[i].Type != want[i].Type {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestReplayMissingDirIsEmpty(t *testing.T) {
	recs, st, err := Replay(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(recs) != 0 || st.Segments != 0 {
		t.Fatalf("missing dir: recs=%v st=%+v err=%v", recs, st, err)
	}
}

// validSet indexes the canonical payload bytes of every record ever
// appended, so a replay result can be checked for resurrected garbage.
func validSet(recs []Record) map[string]bool {
	set := make(map[string]bool, len(recs))
	for _, r := range recs {
		b, _ := json.Marshal(r)
		set[string(b)] = true
	}
	return set
}

func assertNoResurrection(t *testing.T, got []Record, valid map[string]bool, what string) {
	t.Helper()
	for _, r := range got {
		b, _ := json.Marshal(r)
		if !valid[string(b)] {
			t.Fatalf("%s: replay resurrected a record that was never appended: %s", what, b)
		}
	}
}

// TestJournalTornWriteTolerance is the satellite regression: truncating the
// journal at every possible offset, and flipping every single byte, must
// never error the replay and must never produce a record that was not
// appended. Torn tails truncate; corrupt-but-framed records are skipped and
// counted.
func TestJournalTornWriteTolerance(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(4)
	writeJournal(t, dir, recs)
	data, err := os.ReadFile(onlySegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	valid := validSet(recs)

	for cut := 0; cut <= len(data); cut++ {
		got, st := ReplayBytes(data[:cut])
		assertNoResurrection(t, got, valid, fmt.Sprintf("truncate@%d", cut))
		if cut < len(data) && len(got)+st.CorruptRecords+st.Truncated == 0 && cut > 0 {
			t.Fatalf("truncate@%d: damage went uncounted", cut)
		}
		if cut == len(data) && len(got) != len(recs) {
			t.Fatalf("full image replayed %d records, want %d", len(got), len(recs))
		}
	}

	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x5a
		got, st := ReplayBytes(mut)
		assertNoResurrection(t, got, valid, fmt.Sprintf("flip@%d", off))
		if len(got) == len(recs) && st.CorruptRecords == 0 && st.Truncated == 0 {
			// A flip that leaves everything intact would mean the CRC or the
			// framing failed to notice damage.
			t.Fatalf("flip@%d: replay saw no damage (%d records)", off, len(got))
		}
		// A corrupt record must cost at most itself: framing-intact damage
		// never takes the rest of the log with it.
		if st.Truncated == 0 && len(got) < len(recs)-1 {
			t.Fatalf("flip@%d: lost %d records to one corrupt frame", off, len(recs)-len(got))
		}
	}
}

func TestJournalCorruptMiddleRecordIsSkipped(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(3)
	writeJournal(t, dir, recs)
	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte of the second frame (header intact).
	n0 := int(binary.LittleEndian.Uint32(data))
	off := frameHeader + n0 + frameHeader // first payload byte of frame 2
	data[off] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, st, err := Replay(dir)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if st.CorruptRecords != 1 {
		t.Fatalf("corrupt records = %d, want 1 (%+v)", st.CorruptRecords, st)
	}
	if len(got) != 2 || got[0].Job != "job-1" || got[1].Job != "job-3" {
		t.Fatalf("surviving records wrong: %+v", got)
	}
}

func TestJournalRotationCompactsHistory(t *testing.T) {
	dir := t.TempDir()
	live := []Record{{Type: TypeSubmitted, Job: "job-live", Request: json.RawMessage(`{}`)}}
	j, err := Open(Options{
		Dir:           dir,
		Sync:          SyncNever,
		SegmentBytes:  256,
		CompactSource: func() []Record { return live },
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 64; i++ {
		if err := j.Append(Record{Type: TypeFinished, Job: fmt.Sprintf("job-%d", i), Status: json.RawMessage(`{"state":"done"}`)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st := j.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compactions after %d appends over a 256-byte threshold: %+v", 64, st)
	}
	if st.Segments != 1 {
		t.Fatalf("compaction left %d segments, want 1", st.Segments)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The surviving log must start from the live set, not full history.
	if len(recs) == 0 || recs[0].Job != "job-live" {
		t.Fatalf("replay after compaction did not start from the live set: %+v", recs)
	}
	if len(recs) == 65 {
		t.Fatalf("compaction kept full history (%d records)", len(recs))
	}
}

// TestCompactionCostIsBoundedByAppends is the compaction-cliff regression:
// with a live set larger than SegmentBytes, a threshold on segment size
// alone compacts on every append once the compacted head fills the
// segment. Rotation must wait until the appends since the last compaction
// pay for the head it rewrites.
func TestCompactionCostIsBoundedByAppends(t *testing.T) {
	const segBytes = 4 << 10
	var live []Record
	for i := 0; i < 64; i++ {
		live = append(live, Record{Type: TypeFinished, Job: fmt.Sprintf("job-%d", i),
			Status: json.RawMessage(fmt.Sprintf(`{"state":"done","output":%q}`, strings.Repeat("x", 200)))})
	}
	var liveBytes int
	for _, rec := range live {
		liveBytes += len(marshalFrame(t, rec))
	}
	if liveBytes <= 2*segBytes {
		t.Fatalf("live set is %d bytes; the test needs it well past SegmentBytes (%d)", liveBytes, segBytes)
	}
	j, err := Open(Options{Dir: t.TempDir(), Sync: SyncNever, SegmentBytes: segBytes, CompactSource: func() []Record { return live }})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var appended uint64
	for i := 0; i < 400; i++ {
		rec := Record{Type: TypeStarted, Job: fmt.Sprintf("job-%d", i), Resumes: i}
		appended += uint64(len(marshalFrame(t, rec)))
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after %d appended bytes over a %d-byte threshold: %+v", appended, segBytes, st)
	}
	if maxComp := (appended + segBytes - 1) / segBytes; st.Compactions > maxComp {
		t.Fatalf("%d compactions for %d appended bytes; want at most %d (one per SegmentBytes appended)", st.Compactions, appended, maxComp)
	}
	if maxWritten := 2*appended + uint64(liveBytes); st.BytesWritten > maxWritten {
		t.Fatalf("wrote %d bytes for %d appended; want at most %d (twice the appends plus one head)", st.BytesWritten, appended, maxWritten)
	}
}

// jobRequest has the shape of server.JobRequest, which this package cannot
// import: a submitted record's Request is the json.Marshal of one.
type jobRequest struct {
	Scheme         string `json:"scheme"`
	GAC            string `json:"gac,omitempty"`
	Threads        int    `json:"threads,omitempty"`
	Arg            uint32 `json:"arg,omitempty"`
	DeadlineMS     int64  `json:"deadline_ms,omitempty"`
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	Tenant         string `json:"tenant,omitempty"`
}

// marshalFrame is the reference encoder: the layout the journal wrote
// before frames were spliced, one json.Marshal of the whole record.
func marshalFrame(t testing.TB, rec Record) []byte {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatalf("marshal %+v: %v", rec, err)
	}
	frame := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	return append(frame, payload...)
}

// TestFrameMatchesMarshal pins the spliced encoder to json.Marshal: every
// record type, with and without Request and Status, decodes to the same
// Record either way, and a segment in the reference layout replays
// unchanged, alone and ahead of spliced appends and a compaction.
func TestFrameMatchesMarshal(t *testing.T) {
	gac := strings.Repeat("// \"quoted\" <tag> & ünïcødé ✓\nfunc main() {\n\tif 1 < 2 && 3 > 2 { out(\"\\t\") }\n}\n", 200)
	req, err := json.Marshal(jobRequest{Scheme: "hst", GAC: gac, Threads: 4, Arg: 600, DeadlineMS: 30_000, IdempotencyKey: "fab:fab-7", Tenant: "tënant"})
	if err != nil {
		t.Fatal(err)
	}
	status, err := json.Marshal(map[string]any{"id": "job-1", "state": "failed", "error": "line 1\n<b>\"bad\" & wrong</b> é"})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Type: TypeSubmitted, Job: "job-1", Key: "key \"1\" <é>\n", UnixMS: 1700000000000, Request: req},
		{Type: TypeStarted, Job: "job-1", Resumes: 2},
		{Type: TypeCheckpointed, Job: "job-1", VirtualTime: 1 << 40},
		{Type: TypeFinished, Job: "job-1", Key: "k", UnixMS: 5, Status: status},
		{Type: TypeShed, Job: "job-2", Key: "k&2"},
		{Type: TypeDispatched, Job: "fab-1", Worker: "http://127.0.0.1:9", WorkerJob: "job-9", Resumes: 1},
		{Type: TypeSubmitted, Job: "job-3", Request: req, Status: status},
		{Type: TypeStarted},
	}
	var spliced, reference []byte
	for _, rec := range recs {
		frame, err := appendFrame(nil, rec)
		if err != nil {
			t.Fatalf("appendFrame %+v: %v", rec, err)
		}
		payload := frame[frameHeader:]
		if n := binary.LittleEndian.Uint32(frame); int(n) != len(payload) {
			t.Fatalf("%s frame: length %d, payload %d bytes", rec.Type, n, len(payload))
		}
		if crc := binary.LittleEndian.Uint32(frame[4:]); crc != crc32.Checksum(payload, crcTable) {
			t.Fatalf("%s frame: checksum does not cover the payload", rec.Type)
		}
		ref := marshalFrame(t, rec)
		var got, want Record
		if err := json.Unmarshal(payload, &got); err != nil {
			t.Fatalf("spliced %s payload is not JSON: %v\n%s", rec.Type, err, payload)
		}
		if err := json.Unmarshal(ref[frameHeader:], &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, rec) {
			t.Fatalf("%s: spliced payload decodes to %+v; json.Marshal's to %+v", rec.Type, got, want)
		}
		spliced = append(spliced, frame...)
		reference = append(reference, ref...)
	}
	for name, seg := range map[string][]byte{"spliced": spliced, "reference": reference} {
		got, st := ReplayBytes(seg)
		if st.CorruptRecords != 0 || st.Truncated != 0 || !reflect.DeepEqual(got, recs) {
			t.Fatalf("%s segment replayed %d of %d records (%+v)", name, len(got), len(recs), st)
		}
	}

	// A journal left in the reference layout, then reopened: new appends
	// and a compaction of everything replayed keep every record intact.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), reference, 0o644); err != nil {
		t.Fatal(err)
	}
	old, _, err := Replay(dir)
	if err != nil || !reflect.DeepEqual(old, recs) {
		t.Fatalf("reference journal replayed %d of %d records (err %v)", len(old), len(recs), err)
	}
	j, err := Open(Options{Dir: dir, Sync: SyncNever, CompactSource: func() []Record { return old }})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CompactNow(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, st, err := Replay(dir)
	if err != nil || st.Segments != 1 || !reflect.DeepEqual(got, append(append([]Record(nil), recs...), recs...)) {
		t.Fatalf("compacted reference journal replayed %d records over %d segments (err %v); want %d over 1", len(got), st.Segments, err, 2*len(recs))
	}
}

func TestJournalOpenNumbersPastExistingSegments(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, testRecords(2))
	j, err := Open(Options{Dir: dir, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.seq != 2 {
		t.Fatalf("second Open chose segment %d, want 2", j.seq)
	}
	if err := j.Append(Record{Type: TypeStarted, Job: "job-1"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, st, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 2 || len(recs) != 3 {
		t.Fatalf("cross-restart replay: %d segments, %d records (%+v)", st.Segments, len(recs), st)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"always": SyncAlways, "batch": SyncBatch, "": SyncBatch, "never": SyncNever, "NEVER": SyncNever} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
}

// FuzzJournalReplay asserts the replay's core contract on arbitrary bytes:
// it never panics, and every record it returns round-trips through the
// framing (a frame with a valid CRC whose payload parses as JSON).
func FuzzJournalReplay(f *testing.F) {
	dir := f.TempDir()
	j, err := Open(Options{Dir: dir, Sync: SyncNever})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range testRecords(3) {
		if err := j.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	segs, _ := listSegments(dir)
	var seed []byte
	if len(segs) == 1 {
		seed, _ = os.ReadFile(filepath.Join(dir, segs[0].name))
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:len(seed)/2])
	flipped := append([]byte(nil), seed...)
	if len(flipped) > 10 {
		flipped[10] ^= 0xff
	}
	f.Add(flipped)
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte{0x04, 0x00, 0x00, 0x00, 0, 0, 0, 0, 'n', 'u', 'l', 'l'})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, st := ReplayBytes(data)
		if len(recs) > 0 && st.Records != len(recs) {
			t.Fatalf("stats records %d != %d", st.Records, len(recs))
		}
		// Re-frame what survived; it must replay back identically (the
		// surviving set is self-consistent, nothing half-parsed leaks out).
		var buf bytes.Buffer
		for _, r := range recs {
			payload, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("surviving record does not marshal: %v", err)
			}
			var hdr [frameHeader]byte
			binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
			binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
			buf.Write(hdr[:])
			buf.Write(payload)
		}
		again, st2 := ReplayBytes(buf.Bytes())
		if len(again) != len(recs) || st2.CorruptRecords != 0 || st2.Truncated != 0 {
			t.Fatalf("re-framed survivors did not replay cleanly: %d vs %d (%+v)", len(again), len(recs), st2)
		}
	})
}
