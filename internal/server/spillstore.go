package server

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/graph"
)

// The spill tier is an append-only segment log (the Bitcask design,
// after log-structured file systems): every spill appends one record to
// the active segment file in Config.SpillDir, and an in-memory index maps
// each pair to its latest record, so a write is one append and a load
// one positioned read. A record is a 32-byte header followed by the
// pair's session blob (core.Session.Snapshot):
//
//	magic [4]B "AFSR", s u32, t u32, blob length u64,
//	write time i64 (unix ns), CRC-32C of the 28 bytes before it
//
// The header CRC frames the log; the blob's own sections carry their
// checksums, stream identity and version, which the restore checks. No
// append is fsynced: a torn or lost record only makes its pair
// resample, which changes no answer (SpillAll syncs once, at its end).
//
// Opening scans the segments oldest first, and a later record for a pair
// replaces an earlier one unless its write time is older: a compaction
// copy keeps its record's write time, so one that lost a race to a
// fresh spill of the same pair never shadows it. A bad header or a
// record running past the end of its file ends that segment's scan, and
// the pairs of the records after it resample. Spill files of the
// per-pair format that preceded the log are not read; open removes them.
//
// The active segment is sealed once it holds segmentBytes. A sealed
// segment whose live records (those the index points to) fill less than
// half of it is compacted: its live records are copied to the active
// segment, one compaction at a time, on a goroutine of its own, and the
// segment file is removed once no load still reads it. TTL expiry and a
// delta's dissolved pairs are index deletions; their bytes go with their
// segment's compaction.

const (
	// segmentBytes is the size at which the active segment is sealed.
	segmentBytes = 32 << 20
	// recordHeaderSize is the size of a record header.
	recordHeaderSize = 32
	// segmentPattern names a segment file within SpillDir.
	segmentPattern = "spill-%06d.afseg"
	// legacySpillPattern names a spill file of the per-pair format.
	legacySpillPattern = "pair-%d-%d.afsnap"
)

var recordMagic = [4]byte{'A', 'F', 'S', 'R'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recordHeader is one decoded record header.
type recordHeader struct {
	key pairKey
	n   int64 // blob bytes
	at  int64 // write time, unix nanoseconds
}

func putRecordHeader(b []byte, h recordHeader) {
	copy(b[:4], recordMagic[:])
	binary.LittleEndian.PutUint32(b[4:], uint32(h.key.s))
	binary.LittleEndian.PutUint32(b[8:], uint32(h.key.t))
	binary.LittleEndian.PutUint64(b[12:], uint64(h.n))
	binary.LittleEndian.PutUint64(b[20:], uint64(h.at))
	binary.LittleEndian.PutUint32(b[28:], crc32.Checksum(b[:28], castagnoli))
}

// parseRecordHeader decodes the header in b, reporting false for bytes
// that are not a valid header.
func parseRecordHeader(b []byte) (recordHeader, bool) {
	if [4]byte(b[:4]) != recordMagic || binary.LittleEndian.Uint32(b[28:]) != crc32.Checksum(b[:28], castagnoli) {
		return recordHeader{}, false
	}
	h := recordHeader{
		key: pairKey{graph.Node(binary.LittleEndian.Uint32(b[4:])), graph.Node(binary.LittleEndian.Uint32(b[8:]))},
		n:   int64(binary.LittleEndian.Uint64(b[12:])),
		at:  int64(binary.LittleEndian.Uint64(b[20:])),
	}
	return h, h.n >= 0 && h.key.s >= 0 && h.key.t >= 0
}

// scanSegment reads the record headers of a segment of size bytes in
// order, calling fn with each header and its blob's offset, and returns
// the offset where the valid records end: the size, or the first bad
// header or record that runs past the end. It reads only headers, so it
// allocates nothing whatever the bytes claim.
func scanSegment(r io.ReaderAt, size int64, fn func(h recordHeader, off int64)) int64 {
	var b [recordHeaderSize]byte
	pos := int64(0)
	for size-pos >= recordHeaderSize {
		if _, err := r.ReadAt(b[:], pos); err != nil {
			break
		}
		h, ok := parseRecordHeader(b[:])
		if !ok || h.n > size-pos-recordHeaderSize {
			break
		}
		fn(h, pos+recordHeaderSize)
		pos += recordHeaderSize + h.n
	}
	return pos
}

// segment is one log file. Guarded by spillStore.mu.
type segment struct {
	f       *os.File
	size    int64 // bytes appended or reserved for appends in flight
	live    int64 // bytes of the records the index points to, headers included
	pending int   // appends in flight
	readers int   // loads and compactions reading the file
	sealed  bool  // takes no more appends
	dead    bool  // compacted away: closed and removed once readers is 0
	dirty   bool  // written since the last sync
}

// spillLoc is where a pair's latest record lies.
type spillLoc struct {
	seg *segment
	off int64 // blob offset
	n   int64 // blob bytes
	at  int64 // write time, unix nanoseconds
}

func (l spillLoc) bytes() int64 { return recordHeaderSize + l.n }

// spillStore is a server's spill tier; see the comment at the top of
// this file. Safe for concurrent use.
type spillStore struct {
	dir string
	// limit and now are segmentBytes and time.Now, except in tests.
	limit int64
	now   func() time.Time

	mu sync.Mutex
	// writeAt is (*os.File).WriteAt, except in tests that inject faults.
	writeAt    func(f *os.File, b []byte, off int64) (int, error)
	opened     bool
	index      map[pairKey]spillLoc
	segs       []*segment // live segment files, oldest first
	active     *segment   // nil until the next append opens one
	nextID     int
	compacting bool
	compactWG  sync.WaitGroup // the running compaction, for tests
}

func newSpillStore(dir string) *spillStore {
	return &spillStore{dir: dir, limit: segmentBytes, now: time.Now, writeAt: (*os.File).WriteAt}
}

// recordBufs recycles the buffers spills are encoded into.
var recordBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// open scans the directory on first use; a failed open is retried by
// the next call.
func (st *spillStore) open() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.openLocked()
}

func (st *spillStore) openLocked() error {
	if st.opened {
		return nil
	}
	des, err := os.ReadDir(st.dir)
	if err != nil {
		return err
	}
	var ids []int
	for _, de := range des {
		name := de.Name()
		var s, t graph.Node
		if c, err := fmt.Sscanf(name, legacySpillPattern, &s, &t); err == nil && c == 2 && name == fmt.Sprintf(legacySpillPattern, s, t) {
			os.Remove(filepath.Join(st.dir, name))
			continue
		}
		// Sscanf tolerates trailing input, so require an exact re-render
		// too: only our own segment names are ours to read.
		var id int
		if c, err := fmt.Sscanf(name, segmentPattern, &id); err == nil && c == 1 && name == fmt.Sprintf(segmentPattern, id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	st.index = make(map[pairKey]spillLoc)
	for _, id := range ids {
		st.nextID = id + 1
		f, err := os.OpenFile(filepath.Join(st.dir, fmt.Sprintf(segmentPattern, id)), os.O_RDWR, 0)
		if err != nil {
			continue
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			continue
		}
		seg := &segment{f: f, sealed: true}
		seg.size = scanSegment(f, fi.Size(), func(h recordHeader, off int64) {
			if old, ok := st.index[h.key]; ok {
				if old.at > h.at {
					return
				}
				old.seg.live -= old.bytes()
			}
			loc := spillLoc{seg: seg, off: off, n: h.n, at: h.at}
			st.index[h.key] = loc
			seg.live += loc.bytes()
		})
		st.segs = append(st.segs, seg)
	}
	st.opened = true
	for _, seg := range slices.Clone(st.segs) {
		st.maybeCompactLocked(seg)
	}
	return nil
}

// put appends a record holding what write produces as the pair's latest
// and returns the bytes appended. On error the pair's previous record,
// if any, stays its latest.
func (st *spillStore) put(k pairKey, write func(io.Writer) error) (int64, error) {
	buf := recordBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= 4<<20 {
			recordBufs.Put(buf)
		}
	}()
	buf.Reset()
	var hdr [recordHeaderSize]byte
	buf.Write(hdr[:])
	if err := write(buf); err != nil {
		return 0, err
	}
	rec := buf.Bytes()
	putRecordHeader(rec, recordHeader{key: k, n: int64(len(rec) - recordHeaderSize), at: st.now().UnixNano()})
	if err := st.append(k, rec, nil); err != nil {
		return 0, err
	}
	return int64(len(rec)), nil
}

// append writes the encoded record rec to the active segment and makes
// it the pair's latest — unconditionally when was is nil, else only if
// the pair's latest is still *was (a compaction copy).
func (st *spillStore) append(k pairKey, rec []byte, was *spillLoc) error {
	st.mu.Lock()
	if err := st.openLocked(); err != nil {
		st.mu.Unlock()
		return err
	}
	seg := st.active
	if seg == nil {
		f, err := st.createSegmentLocked()
		if err != nil {
			st.mu.Unlock()
			return err
		}
		seg = &segment{f: f}
		st.segs = append(st.segs, seg)
		st.active = seg
	}
	off := seg.size
	seg.size += int64(len(rec))
	seg.pending++
	if seg.size >= st.limit {
		st.sealLocked(seg)
	}
	writeAt := st.writeAt
	st.mu.Unlock()

	n, err := writeAt(seg.f, rec, off)
	if err == nil && n != len(rec) {
		err = io.ErrShortWrite
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	seg.pending--
	if err != nil {
		// The reserved range holds a partial record, which ends the
		// segment's scan on the next open; later records go elsewhere.
		st.sealLocked(seg)
		st.maybeCompactLocked(seg)
		return err
	}
	seg.dirty = true
	loc := spillLoc{seg: seg, off: off + recordHeaderSize, n: int64(len(rec) - recordHeaderSize), at: int64(binary.LittleEndian.Uint64(rec[20:]))}
	old, had := st.index[k]
	if was != nil && (!had || old != *was) {
		// A fresh spill or a deletion overtook the copy: it is dead bytes.
		st.maybeCompactLocked(seg)
		return nil
	}
	st.index[k] = loc
	seg.live += loc.bytes()
	if had {
		st.dropLocked(old)
	}
	st.maybeCompactLocked(seg)
	return nil
}

// createSegmentLocked creates the next segment file, skipping names
// another server on the directory took since the scan.
func (st *spillStore) createSegmentLocked() (*os.File, error) {
	for {
		f, err := os.OpenFile(filepath.Join(st.dir, fmt.Sprintf(segmentPattern, st.nextID)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		st.nextID++
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
}

func (st *spillStore) sealLocked(seg *segment) {
	seg.sealed = true
	if st.active == seg {
		st.active = nil
	}
}

// dropLocked writes off a record the index no longer points to.
func (st *spillStore) dropLocked(loc spillLoc) {
	loc.seg.live -= loc.bytes()
	st.maybeCompactLocked(loc.seg)
}

// maybeCompactLocked removes a sealed segment nothing points to, and
// starts a compaction when a sealed segment is less than half live.
func (st *spillStore) maybeCompactLocked(seg *segment) {
	if !seg.sealed || seg.dead || seg.pending > 0 {
		return
	}
	if seg.live == 0 {
		st.retireLocked(seg)
		return
	}
	if seg.live*2 < seg.size && !st.compacting {
		st.compacting = true
		st.compactWG.Add(1)
		go st.compact()
	}
}

// retireLocked takes seg out of the log; its file is closed and removed
// once no reader holds it.
func (st *spillStore) retireLocked(seg *segment) {
	seg.dead = true
	st.segs = slices.DeleteFunc(st.segs, func(s *segment) bool { return s == seg })
	seg.readers++
	st.unpinLocked(seg)
}

func (st *spillStore) unpinLocked(seg *segment) {
	seg.readers--
	if seg.dead && seg.readers == 0 {
		seg.f.Close()
		os.Remove(seg.f.Name())
	}
}

// compact copies the live records of every sealed segment that is less
// than half live into the active segment, one segment at a time, until
// none is left. A failed copy stops it; the next write off a sealed
// segment starts it again.
func (st *spillStore) compact() {
	defer st.compactWG.Done()
	for {
		st.mu.Lock()
		i := slices.IndexFunc(st.segs, func(s *segment) bool {
			return s.sealed && s.pending == 0 && s.live*2 < s.size
		})
		if i < 0 {
			st.compacting = false
			st.mu.Unlock()
			return
		}
		seg := st.segs[i]
		type rec struct {
			k   pairKey
			loc spillLoc
		}
		var recs []rec
		for k, loc := range st.index {
			if loc.seg == seg {
				recs = append(recs, rec{k, loc})
			}
		}
		// File order, so the copies keep the segment's order.
		slices.SortFunc(recs, func(a, b rec) int { return cmp.Compare(a.loc.off, b.loc.off) })
		seg.readers++
		st.mu.Unlock()

		var err error
		var buf []byte
		for _, r := range recs {
			buf = slices.Grow(buf[:0], int(r.loc.bytes()))[:r.loc.bytes()]
			if _, err = seg.f.ReadAt(buf, r.loc.off-recordHeaderSize); err != nil {
				break
			}
			if err = st.append(r.k, buf, &r.loc); err != nil {
				break
			}
		}

		if err == nil {
			// The copies must be durable before the originals go.
			err = st.sync()
		}
		st.mu.Lock()
		st.unpinLocked(seg)
		if err != nil {
			st.compacting = false
			st.mu.Unlock()
			return
		}
		if !seg.dead && seg.live == 0 {
			st.retireLocked(seg)
		}
		st.mu.Unlock()
	}
}

// pin returns the pair's latest record, held open for reading until
// unpin. ok is false when the pair has none or the store cannot open.
func (st *spillStore) pin(k pairKey) (spillLoc, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.openLocked() != nil {
		return spillLoc{}, false
	}
	loc, ok := st.index[k]
	if ok {
		loc.seg.readers++
	}
	return loc, ok
}

func (st *spillStore) unpin(loc spillLoc) {
	st.mu.Lock()
	st.unpinLocked(loc.seg)
	st.mu.Unlock()
}

// drop deletes the pair's record from the index.
func (st *spillStore) drop(k pairKey) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if loc, ok := st.index[k]; ok {
		delete(st.index, k)
		st.dropLocked(loc)
	}
}

// dropWhere deletes every record for which del reports true, returning
// how many it deleted.
func (st *spillStore) dropWhere(del func(pairKey, spillLoc) bool) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.openLocked() != nil {
		return 0
	}
	n := 0
	for k, loc := range st.index {
		if del(k, loc) {
			delete(st.index, k)
			st.dropLocked(loc)
			n++
		}
	}
	return n
}

// expire deletes the records written more than ttl ago.
func (st *spillStore) expire(ttl time.Duration) int {
	cutoff := st.now().Add(-ttl).UnixNano()
	return st.dropWhere(func(_ pairKey, loc spillLoc) bool { return loc.at < cutoff })
}

// keys returns every pair with a record, in (s, t) order.
func (st *spillStore) keys() []pairKey {
	st.mu.Lock()
	defer st.mu.Unlock()
	ks := make([]pairKey, 0, len(st.index))
	for k := range st.index {
		ks = append(ks, k)
	}
	slices.SortFunc(ks, func(a, b pairKey) int {
		return cmp.Or(cmp.Compare(a.s, b.s), cmp.Compare(a.t, b.t))
	})
	return ks
}

// sync flushes every segment written since the last sync, and the
// directory, to stable storage.
func (st *spillStore) sync() error {
	st.mu.Lock()
	var dirty []*segment
	for _, seg := range st.segs {
		if seg.dirty {
			seg.dirty = false
			seg.readers++
			dirty = append(dirty, seg)
		}
	}
	st.mu.Unlock()
	var errs []error
	for _, seg := range dirty {
		errs = append(errs, seg.f.Sync())
	}
	if d, err := os.Open(st.dir); err == nil {
		errs = append(errs, d.Sync())
		d.Close()
	}
	st.mu.Lock()
	for _, seg := range dirty {
		st.unpinLocked(seg)
	}
	st.mu.Unlock()
	return errors.Join(errs...)
}
