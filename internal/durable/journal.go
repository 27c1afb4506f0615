// Package durable is atomemud's crash-safety substrate: a write-ahead job
// journal plus helpers for spilling checkpoint snapshots to disk. The
// design center is the same as the engine's resilience stack, one layer
// down — a SIGKILL, OOM-kill or deploy restart must never lose accepted
// work, and a corrupt byte on disk must never keep the daemon from
// starting.
//
// The journal is a sequence of segment files ("journal-NNNNNN.waj"), each
// holding length-prefixed CRC32C-framed records:
//
//	+----------+----------+-------------------+
//	| len u32  | crc u32  | payload (JSON)    |
//	| little-  | CRC32C   | len bytes         |
//	| endian   | (payload)|                   |
//	+----------+----------+-------------------+
//
// Replay is deliberately forgiving, in two distinct modes:
//
//   - Torn tail (short header, short payload, or an implausible length —
//     framing itself is lost): the rest of the segment is ignored, exactly
//     what a crash mid-append produces. Counted in Truncated/TruncatedBytes.
//   - Corrupt record (full frame present but CRC or JSON fails — framing
//     is intact, the payload is damaged): that one record is skipped and
//     counted in CorruptRecords; scanning continues at the next frame.
//
// Neither mode is an error: a journal replay never refuses to start the
// daemon. Real I/O failures (unreadable directory) still surface.
//
// Every frame, appended or compacted, is written by one encoder: it
// marshals a Record's small fixed fields and splices Request and Status in
// verbatim, so a record costs its own bytes, never a re-scan of a large
// request or status.
//
// Compaction: a segment rotates once the bytes appended since the last
// compaction reach max(SegmentBytes, head), where head is what that
// compaction wrote. Rotation (or an explicit CompactNow) asks the owner for
// the live record set via the compact source callback, writes it as the
// head of a fresh segment, and deletes every older segment — so terminal
// jobs' history is dropped and the journal's size tracks the live set, not
// daemon lifetime. The rule has two bounds: a compaction never writes more
// than the appends that paid for it (so at most one head beyond twice the
// appended bytes in total, and at most one compaction per SegmentBytes
// appended), and a segment holds at most twice the larger of SegmentBytes
// and the live set.
package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Record is one journal entry. Type tags which fields are meaningful:
//
//	submitted    Job, Key (optional), Request (original wire JSON)
//	started      Job, Resumes (restart-resume budget consumed so far)
//	checkpointed Job, VirtualTime (a durable snapshot exists on disk)
//	finished     Job, Status (final JobStatus wire JSON)
//	shed         Key (a keyed submission was shed at admission)
//	dispatched   Job, Worker, WorkerJob, Resumes (a router handed the job
//	             to a worker; the router journal's analogue of "started")
//
// Request and Status are written into the frame verbatim, never re-encoded:
// each must be valid JSON, such as json.Marshal output or the bytes of a
// replayed record. Invalid bytes are not caught on append; replay skips the
// record they land in as corrupt.
type Record struct {
	Type        string          `json:"type"`
	Job         string          `json:"job,omitempty"`
	Key         string          `json:"key,omitempty"`
	UnixMS      int64           `json:"unix_ms,omitempty"`
	Request     json.RawMessage `json:"request,omitempty"`
	Status      json.RawMessage `json:"status,omitempty"`
	VirtualTime uint64          `json:"virtual_time,omitempty"`
	Resumes     int             `json:"resumes,omitempty"`
	// Worker and WorkerJob are set on router dispatch records: the worker
	// base URL the job went to and the job id it answers to there.
	Worker    string `json:"worker,omitempty"`
	WorkerJob string `json:"worker_job,omitempty"`
}

// Record types.
const (
	TypeSubmitted    = "submitted"
	TypeStarted      = "started"
	TypeCheckpointed = "checkpointed"
	TypeFinished     = "finished"
	TypeShed         = "shed"
	TypeDispatched   = "dispatched"
)

// SyncPolicy selects when appends reach the platters.
type SyncPolicy int

// Sync policies. SyncAlways fsyncs after every append — survives power
// loss, slowest. SyncBatch fsyncs every batchEvery appends and at rotation
// and close — bounds loss to a short suffix. SyncNever leaves flushing to
// the OS — still survives SIGKILL (the data is in the page cache), not
// power loss.
const (
	SyncAlways SyncPolicy = iota
	SyncBatch
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "batch", "":
		return SyncBatch, nil
	case "never":
		return SyncNever, nil
	}
	return SyncBatch, fmt.Errorf("durable: unknown fsync policy %q (always, batch, never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	}
	return "batch"
}

const (
	frameHeader = 8        // len + crc
	maxFrame    = 16 << 20 // sanity bound on one record
	batchEvery  = 16
	flushBytes  = 64 << 10 // compaction writes the live set in chunks of this size
	segPrefix   = "journal-"
	segSuffix   = ".waj"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Journal.
type Options struct {
	// Dir is the journal directory (created if missing).
	Dir string
	// Sync selects the fsync policy.
	Sync SyncPolicy
	// SegmentBytes is the rotation threshold (default 4 MiB): a segment
	// rotates once the bytes appended to it reach the larger of this and
	// the compacted head it started with.
	SegmentBytes int64
	// CompactSource, when set, returns the records that must survive a
	// compaction: rotation writes them as the head of the fresh segment and
	// deletes every older one. Without it, rotation just starts a new
	// segment and history accumulates.
	CompactSource func() []Record
}

// Stats are the journal's lifetime counters (this process only; replay
// stats describe what Open found on disk).
type Stats struct {
	Appends      uint64 `json:"appends"`
	Fsyncs       uint64 `json:"fsyncs"`
	Rotations    uint64 `json:"rotations"`
	Compactions  uint64 `json:"compactions"`
	BytesWritten uint64 `json:"bytes_written"`
	Segments     int    `json:"segments"`
}

// ReplayStats describe what a replay found.
type ReplayStats struct {
	Records        int   `json:"records"`
	CorruptRecords int   `json:"corrupt_records"`
	Truncated      int   `json:"truncated_tails"`
	TruncatedBytes int64 `json:"truncated_bytes"`
	Segments       int   `json:"segments"`
}

// Journal is an append-only record log. Safe for concurrent use.
type Journal struct {
	opts Options

	mu       sync.Mutex
	f        *os.File
	seq      int   // active segment sequence number
	head     int64 // bytes the compaction that opened the segment wrote
	appended int64 // bytes Append has written to the segment after them
	unsynced int
	closed   bool

	appends, fsyncs, rotations, compactions, bytes uint64
	segments                                       int
}

// Open creates or opens the journal in opts.Dir and starts a fresh segment
// numbered after any existing ones (existing segments are never appended
// to, so a torn tail from a previous crash can never be written after).
// Replay existing history first with Replay; Open does not read it.
func Open(opts Options) (*Journal, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("durable: journal directory is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if n := len(segs); n > 0 {
		next = segs[n-1].seq + 1
	}
	j := &Journal{opts: opts, seq: next, segments: len(segs) + 1}
	if err := j.openSegment(next); err != nil {
		return nil, err
	}
	return j, nil
}

func segName(seq int) string { return fmt.Sprintf("%s%06d%s", segPrefix, seq, segSuffix) }

func (j *Journal) openSegment(seq int) error {
	f, err := os.OpenFile(filepath.Join(j.opts.Dir, segName(seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f, j.seq, j.head, j.appended = f, seq, 0, 0
	return nil
}

// appendFrame appends rec's frame to dst. Only the fixed fields go through
// json.Marshal; Request and Status are spliced in verbatim (see Record), so
// the cost of a frame is a copy and a checksum of its bytes.
func appendFrame(dst []byte, rec Record) ([]byte, error) {
	req, status := rec.Request, rec.Status
	rec.Request, rec.Status = nil, nil
	fixed, err := json.Marshal(rec) // `{"type":...}`: Type is never omitted
	if err != nil {
		return dst, err
	}
	const reqKey, statusKey = `,"request":`, `,"status":`
	start := len(dst)
	dst = slices.Grow(dst, frameHeader+len(fixed)+len(reqKey)+len(req)+len(statusKey)+len(status))
	dst = append(dst, make([]byte, frameHeader)...)
	dst = append(dst, fixed[:len(fixed)-1]...)
	if len(req) > 0 {
		dst = append(append(dst, reqKey...), req...)
	}
	if len(status) > 0 {
		dst = append(append(dst, statusKey...), status...)
	}
	dst = append(dst, '}')
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst, nil
}

// writeLocked writes frames to the active segment and counts them.
func (j *Journal) writeLocked(frames []byte) error {
	if _, err := j.f.Write(frames); err != nil {
		return err
	}
	j.bytes += uint64(len(frames))
	j.unsynced++
	return nil
}

// Append journals one record under the configured sync policy.
func (j *Journal) Append(rec Record) error {
	frame, err := appendFrame(nil, rec)
	if err != nil {
		return err
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("durable: journal closed")
	}
	if err := j.writeLocked(frame); err != nil {
		return err
	}
	j.appends++
	j.appended += int64(len(frame))
	switch j.opts.Sync {
	case SyncAlways:
		if err := j.fsyncLocked(); err != nil {
			return err
		}
	case SyncBatch:
		if j.unsynced >= batchEvery {
			if err := j.fsyncLocked(); err != nil {
				return err
			}
		}
	}
	// The appends pay for the compaction they trigger; see the package comment.
	if j.appended >= max(j.opts.SegmentBytes, j.head) {
		return j.rotateLocked()
	}
	return nil
}

func (j *Journal) fsyncLocked() error {
	if j.unsynced == 0 {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.fsyncs++
	j.unsynced = 0
	return nil
}

// Sync forces an fsync of the active segment.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	return j.fsyncLocked()
}

// CompactNow rotates to a fresh segment seeded with the compact source's
// live records and deletes all older segments. A no-op without a source.
func (j *Journal) CompactNow() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || j.opts.CompactSource == nil {
		return nil
	}
	return j.rotateLocked()
}

// rotateLocked seals the active segment and opens the next. With a compact
// source, the new segment starts with the live record set and every older
// segment is removed.
func (j *Journal) rotateLocked() error {
	if err := j.fsyncLocked(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	old := j.seq
	if err := j.openSegment(old + 1); err != nil {
		return err
	}
	j.rotations++
	j.segments++
	if j.opts.CompactSource == nil {
		return nil
	}
	live := j.opts.CompactSource()
	var buf []byte
	for i, rec := range live {
		var err error
		if buf, err = appendFrame(buf, rec); err != nil {
			return err
		}
		if len(buf) >= flushBytes || i == len(live)-1 {
			if err := j.writeLocked(buf); err != nil {
				return err
			}
			j.head += int64(len(buf))
			buf = buf[:0]
		}
	}
	if err := j.fsyncLocked(); err != nil {
		return err
	}
	// Live set durably in the new segment: history can go.
	segs, err := listSegments(j.opts.Dir)
	if err != nil {
		return err
	}
	removed := 0
	for _, s := range segs {
		if s.seq < j.seq {
			if err := os.Remove(filepath.Join(j.opts.Dir, s.name)); err != nil {
				return err
			}
			removed++
		}
	}
	j.segments -= removed
	j.compactions++
	return nil
}

// Close fsyncs and closes the active segment.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.fsyncLocked(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// Stats returns the journal's lifetime counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Appends:      j.appends,
		Fsyncs:       j.fsyncs,
		Rotations:    j.rotations,
		Compactions:  j.compactions,
		BytesWritten: j.bytes,
		Segments:     j.segments,
	}
}

type segment struct {
	name string
	seq  int
}

func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []segment
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var seq int
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), "%d", &seq); err != nil {
			continue
		}
		segs = append(segs, segment{name: name, seq: seq})
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i].seq < segs[k].seq })
	return segs, nil
}

// Replay reads every journal segment in dir in order and returns the
// surviving records. Torn tails and corrupt records are tolerated per the
// package policy and reported in the stats; a missing directory replays
// empty. Only real I/O failures return an error.
func Replay(dir string) ([]Record, ReplayStats, error) {
	var st ReplayStats
	segs, err := listSegments(dir)
	if err != nil {
		return nil, st, err
	}
	st.Segments = len(segs)
	var out []Record
	for _, s := range segs {
		data, err := os.ReadFile(filepath.Join(dir, s.name))
		if err != nil {
			return nil, st, err
		}
		recs := replaySegment(data, &st)
		out = append(out, recs...)
	}
	st.Records = len(out)
	return out, st, nil
}

// ReplayBytes scans one segment image (fuzzing and tests).
func ReplayBytes(data []byte) ([]Record, ReplayStats) {
	var st ReplayStats
	st.Segments = 1
	out := replaySegment(data, &st)
	st.Records = len(out)
	return out, st
}

func replaySegment(data []byte, st *ReplayStats) []Record {
	var out []Record
	off := 0
	for off < len(data) {
		rest := len(data) - off
		if rest < frameHeader {
			// Torn header: a crash mid-append. Ignore the tail.
			st.Truncated++
			st.TruncatedBytes += int64(rest)
			return out
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		want := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > maxFrame {
			// Framing itself is gone: nothing after this point can be
			// trusted to start on a frame boundary. Truncate here.
			st.Truncated++
			st.TruncatedBytes += int64(rest)
			return out
		}
		if rest-frameHeader < n {
			// Torn payload.
			st.Truncated++
			st.TruncatedBytes += int64(rest)
			return out
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		off += frameHeader + n
		if crc32.Checksum(payload, crcTable) != want {
			// Framing intact, payload damaged: skip just this record.
			st.CorruptRecords++
			continue
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			st.CorruptRecords++
			continue
		}
		out = append(out, rec)
	}
	return out
}
