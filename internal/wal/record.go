// Package wal is the operator's durability layer: an append-only segmented
// write-ahead log of arriving stream elements plus a checkpoint store.
//
// Theorem 5 of the paper proves the maintained candidate set S_{N,q} is
// minimal — it cannot reconstruct the rest of the window after a crash — so
// a restartable deployment must persist the raw arrival stream and replay it.
// The sliding window makes that cheap: only the most recent N elements (or
// Period time units) can ever matter again, so the log self-truncates — a
// checkpoint of the engine state plus the log tail past it is a complete
// recovery recipe, and everything older is garbage.
//
// Layout of a durability directory:
//
//	wal-<firstSeq>.seg   log segments, named by their first record's sequence
//	ckpt-<seq>.ckpt      engine checkpoints, named by the stream position
//
// Records are length-prefixed binary with a CRC32-Castagnoli checksum; the
// encoder reuses a pooled buffer so steady-state appends do not allocate.
// Group commit is the caller's contract: Append any number of records, then
// Commit once — one write syscall and (under FsyncAlways) one fsync for the
// whole batch. Torn tails from crashes are detected by the checksum and
// truncated on Open, while a valid record out of sequence order makes Open
// refuse the directory; checkpoints are installed with an atomic rename so a
// crash mid-install never leaves a half-written checkpoint visible.
//
// Like the rest of the operator, the package is stdlib-only.
package wal

import (
	"encoding/binary"
	"hash/crc32"
	"math"
)

// Record wire format, all fixed-width little-endian:
//
//	uint32  payload length
//	uint32  CRC32-Castagnoli of the payload
//	payload:
//	  byte    record kind (recElement)
//	  uint64  sequence number
//	  uint64  occurrence probability (float64 bits)
//	  uint64  timestamp (int64 bits)
//	  uint32  dimensionality d
//	  d×uint64 coordinates (float64 bits)
//
// The sequence number is stored explicitly (rather than derived from the
// position in the log) so that replay can skip records already covered by a
// checkpoint and detect gaps left by corruption.
const (
	recHdrLen  = 8
	recElement = 1

	// minPayload is the size of the payload's fixed fields (kind, sequence,
	// probability, timestamp, d) and maxPayload bounds a payload so a
	// corrupt length prefix is rejected instead of driving a huge read.
	minPayload = 1 + 8 + 8 + 8 + 4
	maxPayload = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksum is the record checksum used throughout the package.
func checksum(p []byte) uint32 { return crc32.Checksum(p, crcTable) }

// Record is one decoded log record: an arriving stream element.
type Record struct {
	Seq  uint64
	Prob float64
	TS   int64
	// Point aliases the reader's scratch buffer (Replay's or
	// DecodeRecords') and is only valid until the next record is delivered;
	// copy it to retain.
	Point []float64
}

// payloadLen returns the payload size of an element record with d dimensions.
func payloadLen(d int) int { return minPayload + 8*d }

// recordLen returns the full on-disk size of an element record.
func recordLen(d int) int { return recHdrLen + payloadLen(d) }

// appendRecord encodes an element record into buf (reusing its storage) and
// returns the extended slice. The caller owns buf across calls, which is what
// keeps the append hot path allocation-free once the buffer has grown to the
// workload's record size.
func appendRecord(buf []byte, seq uint64, pt []float64, p float64, ts int64) []byte {
	n := payloadLen(len(pt))
	need := recHdrLen + n
	if cap(buf) < len(buf)+need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	start := len(buf)
	buf = buf[:start+need]
	payload := buf[start+recHdrLen:]
	payload[0] = recElement
	binary.LittleEndian.PutUint64(payload[1:], seq)
	binary.LittleEndian.PutUint64(payload[9:], math.Float64bits(p))
	binary.LittleEndian.PutUint64(payload[17:], uint64(ts))
	binary.LittleEndian.PutUint32(payload[25:], uint32(len(pt)))
	for i, v := range pt {
		binary.LittleEndian.PutUint64(payload[29+8*i:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// scanEnd is parseFrame's verdict on one frame, and why a segment scan
// stopped where it did. endTorn is the expected crash signature: a frame that
// simply ran out of bytes (a partial header or payload at the tail).
// endCorrupt means the bytes were present but wrong. endOrder is a valid
// frame whose sequence breaks its segment's order (see scanSegment). The
// distinction matters for recovery: torn tails are routine and truncated,
// corruption in the middle of a supposedly synced log is truncated and
// counted, and an order break is refused, since its bytes are intact.
type scanEnd int

const (
	endClean scanEnd = iota
	endTorn
	endCorrupt
	endOrder
)

func (e scanEnd) String() string {
	return [...]string{"clean", "torn", "corrupt", "out-of-order"}[e]
}

// parseFrame is the one parser of the record frame format: Open's validation
// scan, Replay, the replication TailReader and a follower's DecodeRecords all
// take frames apart through it. It parses the frame at the front of b and
// returns the decoded record and the frame's size, with the verdict:
//
//   - endClean: b starts with a whole, valid frame of size bytes.
//   - endTorn: b ends inside the frame, at a partial header or before the
//     end of a well-formed length prefix's payload. size is how many bytes
//     the frame needs; a streaming reader fetches more and parses again.
//   - endCorrupt: the bytes are present but wrong: a length prefix outside
//     [minPayload, maxPayload], a CRC mismatch, an unknown record kind or a
//     payload that does not match its dimensionality.
//
// The record's Point aliases *scratch, which is grown as needed.
func parseFrame(b []byte, scratch *[]float64) (rec Record, size int, end scanEnd) {
	if len(b) < recHdrLen {
		return Record{}, recHdrLen, endTorn
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < minPayload || n > maxPayload {
		return Record{}, 0, endCorrupt
	}
	size = recHdrLen + n
	if len(b) < size {
		return Record{}, size, endTorn
	}
	payload := b[recHdrLen:size]
	d := int(binary.LittleEndian.Uint32(payload[25:]))
	if checksum(payload) != binary.LittleEndian.Uint32(b[4:]) ||
		payload[0] != recElement || d < 1 || n != payloadLen(d) {
		return Record{}, size, endCorrupt
	}
	pt := *scratch
	if cap(pt) < d {
		pt = make([]float64, d)
	}
	pt = pt[:d]
	for i := range pt {
		pt[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[minPayload+8*i:]))
	}
	*scratch = pt
	return Record{
		Seq:   binary.LittleEndian.Uint64(payload[1:]),
		Prob:  math.Float64frombits(binary.LittleEndian.Uint64(payload[9:])),
		TS:    int64(binary.LittleEndian.Uint64(payload[17:])),
		Point: pt,
	}, size, endClean
}
