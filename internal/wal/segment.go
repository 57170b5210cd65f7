package wal

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"pskyline/internal/vfs"
)

// Segment files open with an 8-byte magic so a stray file that happens to
// match the name pattern is rejected rather than misparsed.
var segMagic = []byte("PSKYWAL1")

const segHdrLen = 8

// segmentName returns the file name of the segment whose first record
// carries seq.
func segmentName(seq uint64) string {
	return fmt.Sprintf("wal-%020d.seg", seq)
}

// parseSegmentName extracts the first-record sequence from a segment file
// name, reporting ok=false for files that are not segments.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	num := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	if len(num) != 20 {
		return 0, false
	}
	seq, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// segmentInfo is one on-disk segment known to the WAL, ordered by firstSeq.
type segmentInfo struct {
	path     string
	firstSeq uint64
	size     int64 // valid bytes (post torn-tail truncation)
	records  uint64
	lastSeq  uint64 // last valid record's seq (records > 0)
}

// listSegments returns the directory's segments sorted by first sequence.
func listSegments(fsys vfs.FS, dir string) ([]segmentInfo, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segmentInfo
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		seq, ok := parseSegmentName(ent.Name())
		if !ok {
			continue
		}
		segs = append(segs, segmentInfo{path: filepath.Join(dir, ent.Name()), firstSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// segReader reads one segment's record frames front to back through one
// buffer. It is the only reader of segment files: Open's validation scan and
// Replay read a whole file, and a TailReader reads up to the committed
// extent, which it raises as commits land.
type segReader struct {
	f       vfs.File
	path    string
	off     int64  // file offset of buf[0], the next frame to parse
	limit   int64  // no byte at or past this offset is read
	buf     []byte // read but unparsed bytes, a window of store
	store   []byte
	scratch []float64
}

// openSegment opens a segment and checks its magic. It returns a nil reader
// when the file holds no frames: an empty file (endClean), one shorter than
// the magic — a segment creation that died mid-write (endTorn) — or one whose
// magic is not ours, so nothing in it is trustworthy (endCorrupt).
func openSegment(fsys vfs.FS, path string) (*segReader, scanEnd, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, endClean, fmt.Errorf("wal: %w", err)
	}
	var hdr [segHdrLen]byte
	_, err = io.ReadFull(f, hdr[:])
	end := endClean
	switch {
	case err == io.ErrUnexpectedEOF:
		end = endTorn
	case err == nil && string(hdr[:]) != string(segMagic):
		end = endCorrupt
	case err == nil:
		return &segReader{f: f, path: path, off: segHdrLen, limit: math.MaxInt64, store: make([]byte, 64<<10)}, endClean, nil
	case err != io.EOF:
		err = fmt.Errorf("wal: read %s: %w", path, err)
	default:
		err = nil
	}
	f.Close()
	return nil, end, err
}

// next returns the next frame and its decoded record. At the end of the file
// or limit it returns a nil frame with endClean when the end falls on a frame
// boundary and endTorn when it does not; a nil frame with endCorrupt means
// the next frame's bytes are wrong. err is reserved for I/O failures. The
// frame aliases the reader's buffer and the record's Point its scratch: both
// are valid until the next call.
func (r *segReader) next() (frame []byte, rec Record, end scanEnd, err error) {
	for {
		var size int
		if rec, size, end = parseFrame(r.buf, &r.scratch); end == endClean {
			frame, r.buf = r.buf[:size], r.buf[size:]
			r.off += int64(size)
			return frame, rec, endClean, nil
		}
		if end == endCorrupt {
			return nil, Record{}, endCorrupt, nil
		}
		more, err := r.fill(size)
		if err != nil || !more {
			if len(r.buf) == 0 {
				end = endClean
			}
			return nil, Record{}, end, err
		}
	}
}

// fill reads until the buffer holds need bytes, reporting false when the file
// or the limit ends first. The unparsed remainder moves to the front of the
// storage first, so the buffer never grows past one read chunk or one frame.
func (r *segReader) fill(need int) (bool, error) {
	if need > len(r.store) {
		r.store = make([]byte, need)
	}
	r.buf = r.store[:copy(r.store, r.buf)]
	for len(r.buf) < need {
		room := r.store[len(r.buf):]
		if left := r.limit - r.off - int64(len(r.buf)); left < int64(len(room)) {
			room = room[:left]
		}
		if len(room) == 0 {
			return false, nil
		}
		n, err := r.f.Read(room)
		r.buf = r.buf[:len(r.buf)+n]
		if n == 0 {
			if err == nil || err == io.EOF {
				return false, nil
			}
			return false, fmt.Errorf("wal: read %s at offset %d: %w", r.path, r.off+int64(len(r.buf)), err)
		}
	}
	return true, nil
}

// segScan is what scanSegment found in one segment: the valid prefix (its
// records and span, with info.size where it ends), why the scan stopped
// there, and for endOrder the sequence of the record that broke the order.
type segScan struct {
	info segmentInfo
	end  scanEnd
	seq  uint64
}

// scanSegment validates one segment from the front: header magic, every
// frame through parseFrame, and the segment's sequence order. The first
// record must carry the sequence the file is named by, and each later one
// must follow its predecessor: consecutively in a dense log, strictly
// increasing in a sparse one. A log written by one shard of a sharded monitor
// is sparse — it carries that shard's subsequence of the globally numbered
// stream, so consecutive records may legitimately skip sequences. A valid
// frame that breaks the order ends the scan with endOrder: its bytes are
// intact, so it is not a crash artifact but a log read under the wrong
// settings. onRecord, when non-nil, receives every valid record in order
// (used by Replay; the scan pass on Open passes nil).
func scanSegment(fsys vfs.FS, path string, nameSeq uint64, sparse bool, onRecord func(Record) error) (segScan, error) {
	sc := segScan{info: segmentInfo{path: path, firstSeq: nameSeq}}
	r, end, err := openSegment(fsys, path)
	if r == nil {
		sc.end = end
		return sc, err
	}
	defer r.f.Close()
	sc.info.size = segHdrLen
	expect := nameSeq
	for {
		frame, rec, end, err := r.next()
		if err != nil {
			return sc, err
		}
		if frame == nil {
			sc.end = end
			return sc, nil
		}
		if rec.Seq != expect && !(sparse && sc.info.records > 0 && rec.Seq > expect) {
			sc.end, sc.seq = endOrder, rec.Seq
			return sc, nil
		}
		expect = rec.Seq + 1
		if onRecord != nil {
			if err := onRecord(rec); err != nil {
				return sc, err
			}
		}
		sc.info.size = r.off
		sc.info.records++
		sc.info.lastSeq = rec.Seq
	}
}
