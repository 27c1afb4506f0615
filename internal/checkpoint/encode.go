package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"atomemu/internal/mmu"
)

// This file gives Snapshot a stable, versioned binary encoding so a
// checkpoint can outlive the process that captured it (atomemud's durable
// job spills, router failover hand-offs, offline repro bundles).
//
// Container layout, all integers little-endian:
//
//	u32 magic "ACKP"    u32 version
//	u32 metaLen         metaLen bytes of JSON metadata
//	u32 blobCount       blobCount × PageWords*4 bytes of frame contents
//	u32 crc             CRC32C over everything before it
//
// The metadata carries every architectural field (vCPUs, barriers, output,
// cursors) plus the page table; frame contents live in the blob section,
// deduplicated by content hash — the incremental capture path shares
// unwritten frame slices across snapshots, and content addressing keeps
// that sharing (and any coincidental duplicates, like all-zero pages) from
// being re-serialized per page.
//
// One deliberate omission: the emulation scheme's private payload
// (Snapshot.Scheme) is NOT encoded, and a decoded snapshot carries
// Scheme == nil. The payload is host-side acceleration state, not guest
// state — HST hash-table entries are store-test metadata and TM slot words
// are version counters — and every scheme's Restore treats an unrecognized
// payload as "start fresh", which composes with the restore path already
// disarming all exclusive monitors: the first SC after resumption may fail
// spuriously, which LL/SC guests must tolerate anyway. Dropping it keeps
// the format scheme-independent and stable across scheme evolution.

// Encoding identity.
const (
	Magic   = 0x504b4341 // "ACKP" little-endian
	Version = 1

	frameBytes = mmu.PageWords * 4
	// maxEncodedMeta bounds the metadata section a decoder will accept.
	maxEncodedMeta = 256 << 20
	// maxBlobCount bounds the frame section (1M frames = 4 GiB of guest
	// memory, far beyond the 32-bit guest this models).
	maxBlobCount = 1 << 20
)

var codecCRC = crc32.MakeTable(crc32.Castagnoli)

// encMeta is the JSON metadata section. mmu.PageSnap's Frame field is
// reused as-is: in the encoded form it indexes the original frame numbering
// preserved in FrameBlobs, which maps each frame to its content blob.
type encMeta struct {
	VirtualTime uint64         `json:"virtual_time"`
	HeapNext    uint32         `json:"heap_next"`
	NextTID     uint32         `json:"next_tid"`
	CPUs        []VCPU         `json:"cpus"`
	Barriers    []Barrier      `json:"barriers,omitempty"`
	Output      []uint32       `json:"output,omitempty"`
	Pages       []mmu.PageSnap `json:"pages"`
	FrameBlobs  []frameBlobRef `json:"frame_blobs"`
}

type frameBlobRef struct {
	Frame int32  `json:"frame"`
	Blob  uint32 `json:"blob"`
}

// EncodeBytes renders snap to its versioned binary form in memory — the
// shape checkpoint hand-offs want (HTTP bodies, router-side caches), where
// the image is shipped whole rather than streamed.
func EncodeBytes(snap *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Encode writes snap in the versioned binary format. The snapshot is read
// but never mutated, so encoding may run concurrently with further
// captures and restores of the same (immutable) snapshot.
func Encode(w io.Writer, snap *Snapshot) error {
	if snap == nil || snap.Mem == nil {
		return fmt.Errorf("checkpoint: encode: nil snapshot")
	}
	meta := encMeta{
		VirtualTime: snap.VirtualTime,
		HeapNext:    snap.HeapNext,
		NextTID:     snap.NextTID,
		CPUs:        snap.CPUs,
		Barriers:    snap.Barriers,
		Output:      snap.Output,
		Pages:       snap.Mem.Pages,
	}

	// Content-address the frames: identical contents (shared incremental
	// slices, zero pages) serialize once. Iterate frames in index order so
	// the encoding is deterministic.
	frames := make([]int32, 0, len(snap.Mem.Frames))
	for f := range snap.Mem.Frames {
		frames = append(frames, f)
	}
	sort.Slice(frames, func(i, k int) bool { return frames[i] < frames[k] })
	var blobs [][]uint32
	blobByHash := make(map[[sha256.Size]byte]uint32, len(frames))
	for _, f := range frames {
		words := snap.Mem.Frames[f]
		if len(words) != mmu.PageWords {
			return fmt.Errorf("checkpoint: encode: frame %d has %d words, want %d", f, len(words), mmu.PageWords)
		}
		h := hashFrame(words)
		idx, ok := blobByHash[h]
		if !ok {
			idx = uint32(len(blobs))
			blobs = append(blobs, words)
			blobByHash[h] = idx
		}
		meta.FrameBlobs = append(meta.FrameBlobs, frameBlobRef{Frame: f, Blob: idx})
	}

	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return err
	}

	var buf bytes.Buffer
	buf.Grow(16 + len(metaJSON) + len(blobs)*frameBytes)
	var u32 [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		buf.Write(u32[:])
	}
	put(Magic)
	put(Version)
	put(uint32(len(metaJSON)))
	buf.Write(metaJSON)
	put(uint32(len(blobs)))
	wordBuf := make([]byte, frameBytes)
	for _, words := range blobs {
		for i, w := range words {
			binary.LittleEndian.PutUint32(wordBuf[i*4:], w)
		}
		buf.Write(wordBuf)
	}
	put(crc32.Checksum(buf.Bytes(), codecCRC))
	_, err = w.Write(buf.Bytes())
	return err
}

func hashFrame(words []uint32) [sha256.Size]byte {
	b := make([]byte, len(words)*4)
	for i, w := range words {
		binary.LittleEndian.PutUint32(b[i*4:], w)
	}
	return sha256.Sum256(b)
}
