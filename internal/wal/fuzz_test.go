package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"pskyline/internal/vfs"
)

// FuzzWALRecord throws arbitrary bytes at the two decoding layers a crashed
// or corrupted log exercises: the frame parser, fed the bytes as the payload
// of a correctly framed record, and the segment scanner that frames records
// and classifies where (and why) a segment goes bad. Neither may ever panic,
// a successful payload decode must re-encode to the identical bytes, and the
// scanner must always preserve the valid record planted before the fuzz
// tail — whatever the tail holds.
func FuzzWALRecord(f *testing.F) {
	// Seed corpus: valid payloads of a few dimensionalities, their truncated
	// prefixes, and single-bit flips.
	for _, d := range []int{1, 3, 8} {
		pt := make([]float64, d)
		for i := range pt {
			pt[i] = float64(i) * 1.5
		}
		rec := appendRecord(nil, 42, pt, 0.75, 1234567)
		payload := rec[recHdrLen:]
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
		flipped := append([]byte(nil), payload...)
		flipped[len(flipped)-1] ^= 0x80
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{recElement})

	f.Fuzz(func(t *testing.T, payload []byte) {
		framed := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		framed = binary.LittleEndian.AppendUint32(framed, checksum(payload))
		framed = append(framed, payload...)
		var scratch []float64
		if rec, _, end := parseFrame(framed, &scratch); end == endClean {
			// The encoding is canonical: whatever decodes must re-encode to
			// the exact same bytes.
			re := appendRecord(nil, rec.Seq, rec.Point, rec.Prob, rec.TS)
			if !bytes.Equal(re[recHdrLen:], payload) {
				t.Fatalf("decode/encode not a round trip:\n in  %x\n out %x", payload, re[recHdrLen:])
			}
		}

		// Frame the fuzz bytes as a segment tail after one valid record and
		// scan. The valid prefix must survive regardless of the tail; a tail
		// that is a bare truncation must classify as torn, not corrupt.
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(7))
		valid := appendRecord(nil, 7, []float64{1, 2}, 0.5, 99)
		content := append(append([]byte(nil), segMagic...), valid...)
		cut := len(content)
		content = append(content, payload...)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		sc, err := scanSegment(vfs.OS{}, path, 7, false, nil)
		info, torn, reason := sc.info, sc.info.size, sc.end
		if err != nil {
			t.Fatalf("scanSegment returned an error for in-file garbage: %v", err)
		}
		if info.records < 1 || info.lastSeq < 7 {
			t.Fatalf("valid prefix record lost: %+v", info)
		}
		if torn < int64(cut) {
			t.Fatalf("torn point %d cuts into the valid prefix (ends %d)", torn, cut)
		}
		if torn > int64(len(content)) {
			t.Fatalf("torn point %d past file end %d", torn, len(content))
		}

		// A tail that is a strict prefix of a valid successor record is the
		// crash signature and must be classified torn, never corrupt.
		next := appendRecord(nil, 8, []float64{3, 4}, 0.25, 100)
		if len(payload) > 0 && len(payload) < len(next) && bytes.Equal(payload, next[:len(payload)]) {
			if reason != endTorn {
				t.Fatalf("truncated successor classified %d, want endTorn", reason)
			}
		}
	})
}

// FuzzWALRecordHeader fuzzes the length/CRC framing: arbitrary 8-byte headers
// followed by arbitrary bytes must never panic the scanner and must never
// yield a record beyond the planted prefix unless the CRC genuinely matches.
// The same bytes fed to DecodeRecords, the follower's reader, must be framed
// identically: it accepts exactly the frames the scan accepted, and stops
// where the scan found a torn or corrupt frame.
func FuzzWALRecordHeader(f *testing.F) {
	valid := appendRecord(nil, 3, []float64{9}, 0.5, 1)
	f.Add(valid[:recHdrLen], valid[recHdrLen:])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, []byte{})
	f.Add([]byte{29, 0, 0, 0, 0, 0, 0, 0}, bytes.Repeat([]byte{0}, 29))
	next := appendRecord(nil, 4, []float64{8}, 0.25, 2)
	f.Add(next[:recHdrLen], next[recHdrLen:])
	f.Add(next[:recHdrLen], next[recHdrLen:len(next)-1])

	f.Fuzz(func(t *testing.T, hdr, body []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(3))
		content := append(append([]byte(nil), segMagic...), valid...)
		content = append(content, hdr...)
		content = append(content, body...)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		sc, err := scanSegment(vfs.OS{}, path, 3, false, nil)
		if err != nil {
			t.Fatalf("scanSegment error: %v", err)
		}
		info := sc.info
		if info.records < 1 {
			t.Fatalf("valid prefix lost: %+v", info)
		}
		if info.records > 1 {
			// The fuzzer found bytes that parse as record seq 4 — only
			// acceptable if the framing genuinely checks out.
			if len(hdr) < recHdrLen {
				t.Fatalf("accepted a record from a short header")
			}
			n := int(binary.LittleEndian.Uint32(hdr[:4]))
			if n < 29 || n > len(body) {
				t.Fatalf("accepted a record with bad length %d (body %d)", n, len(body))
			}
			if crc32.Checksum(body[:n], crcTable) != binary.LittleEndian.Uint32(hdr[4:recHdrLen]) {
				t.Fatalf("accepted a record with a wrong CRC")
			}
		}

		var seqs []uint64
		derr := DecodeRecords(content[segHdrLen:], func(r Record) error {
			seqs = append(seqs, r.Seq)
			return nil
		})
		// A frame out of sequence order is still a valid frame: the scan
		// stops at it, DecodeRecords (which knows no order) accepts it.
		framed := int(info.records)
		if sc.end == endOrder {
			framed++
		}
		if len(seqs) < framed {
			t.Fatalf("DecodeRecords accepted %d frames, the scan %d (end %v): %v", len(seqs), framed, sc.end, derr)
		}
		for i := uint64(0); i < info.records; i++ {
			if seqs[i] != 3+i {
				t.Fatalf("DecodeRecords frame %d has seq %d, the scan's %d", i, seqs[i], 3+i)
			}
		}
		switch sc.end {
		case endClean:
			if derr != nil || len(seqs) != framed {
				t.Fatalf("clean segment of %d frames: DecodeRecords took %d, err %v", framed, len(seqs), derr)
			}
		case endTorn, endCorrupt:
			if derr == nil || len(seqs) != framed {
				t.Fatalf("%v frame after %d: DecodeRecords took %d, err %v", sc.end, framed, len(seqs), derr)
			}
		case endOrder:
			if seqs[info.records] != sc.seq {
				t.Fatalf("out-of-order frame has seq %d in the scan, %d in DecodeRecords", sc.seq, seqs[info.records])
			}
		}
	})
}
