package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"
)

// This file adds the third blob type of the snapshot format: the touch
// lists a pool carries for delta repair. The engine splits every chunk of
// ChunkSize draws into touch groups of GroupSize draws and records, for
// each group, the sorted union of the nodes its draws visited or
// selected. When the graph mutates, a group whose list names no dirty
// node replays identically on the new graph (every draw reads its own
// stream), so only damaged groups are re-drawn.
//
// A touch list is a run of unsigned varints (encoding/binary's Uvarint):
// the gaps between consecutive nodes, starting from −1, so the first gap
// is the first node plus one and every gap is at least 1. A list is
// well formed when it is non-empty (every draw touches its target), no
// varint is truncated, no gap is 0 and every node lies below the
// universe. Lists are decoded only where repair reads them
// (TouchListMeets); a malformed one counts as a damaged group, so it is
// re-drawn and never yields a wrong answer.
//
// Layout (all fixed-width fields little-endian):
//
//	header (64 B): magic [8]B, version u32, streamEpoch u32,
//	               universe i64, total i64, chunkSize i64, groupSize i64,
//	               offsetsLen i64, dataLen i64
//	offsets: offsetsLen × u32, padded to 8 B — for each chunk in order,
//	         one offset per group plus an end offset, relative to the
//	         chunk's first list byte
//	data:    dataLen bytes, padded to 8 B — every chunk's lists in order
//	footer (8 B): CRC-32C of everything before it, then 4 zero bytes
//
// A touch blob never stands alone: it directly follows the pool blob it
// describes in a stream, inheriting that pool's (seed, ns, fingerprint)
// identity, which is why the header carries only the stream epoch and the
// geometry. The geometry (total draws, chunk and group sizes) fixes how
// many groups each chunk holds, hence offsetsLen. Decoding validates the
// framing — the offsets count, each chunk's offsets rising from 0, the
// chunks' lists exactly filling the data — but not the lists themselves.
// The section is optional on read: a reader peeks for the magic
// (IsTouch) and, when absent, treats every group as damaged under a
// delta, which is always correct, just slower.
//
// Version history: 1 stored each chunk's sorted touched nodes (whole-chunk
// damage); 2 stored a word per node with one bit per 64-draw group; 3
// stores a varint list per 8-draw group.
const (
	// TouchVersion is bumped on any incompatible TouchSet layout change.
	TouchVersion    = 3
	touchHeaderSize = 64
)

var touchMagic = [8]byte{0x89, 'A', 'F', 'T', 'O', 'U', 'C', 'H'}

// touchSection describes the touch blob's shared header prefix; its six
// type-specific words are universe, total, chunkSize, groupSize,
// offsetsLen, dataLen (touchHeaderSize == sectionHeaderSize(6)).
var touchSection = sectionDesc{magic: touchMagic, version: TouchVersion, name: "touch"}

// TouchSet is the serialized form of a pool's touch lists, one
// TouchChunk per chunk.
type TouchSet struct {
	// StreamEpoch mirrors the accompanying pool blob's stream epoch.
	StreamEpoch uint32
	Universe    int64
	// Total is the pool's draw count; chunk c holds
	// min(ChunkSize, Total − c·ChunkSize) draws in groups of GroupSize.
	Total     int64
	ChunkSize int64
	GroupSize int64
	Chunks    []TouchChunk
}

// TouchChunk holds one chunk's touch lists: group g's list is
// Data[Offsets[g]:Offsets[g+1]]. Offsets has one entry per group plus
// the end, starts at 0 and ends at len(Data).
type TouchChunk struct {
	Offsets []uint32
	Data    []byte
}

// NumChunks returns the number of chunks the touch set describes.
func (ts *TouchSet) NumChunks() int { return len(ts.Chunks) }

// touchGroups returns the group count of chunk c of a touch section.
func touchGroups(total, chunkSize, groupSize int64, c int) int64 {
	draws := min(chunkSize, total-int64(c)*chunkSize)
	return (draws + groupSize - 1) / groupSize
}

// touchOffsetsLen returns how many offsets a section of this geometry
// holds: one per group plus one per chunk. The caller has checked that
// the chunk count fits an int32, so the product cannot overflow.
func touchOffsetsLen(total, chunkSize, groupSize int64) int64 {
	full, rem := total/chunkSize, total%chunkSize
	n := full * ((chunkSize+groupSize-1)/groupSize + 1)
	if rem > 0 {
		n += (rem+groupSize-1)/groupSize + 1
	}
	return n
}

// EncodedSizeTouchFor returns the encoded size of a touch section with
// offsetsLen offsets and dataLen list bytes.
func EncodedSizeTouchFor(offsetsLen, dataLen int64) int64 {
	return touchHeaderSize + pad8(offsetsLen*4) + pad8(dataLen) + footerSize
}

// IsTouch reports whether b begins with the TouchSet magic — the peek a
// stream reader uses to decide whether an optional touch section follows
// a pool blob.
func IsTouch(b []byte) bool { return touchSection.is(b) }

// u32AsI32 reinterprets offsets as int32s for the shared i32 writer.
func u32AsI32(s []uint32) []int32 {
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// AppendTouchList appends the touch-list encoding of nodes, which must be
// strictly ascending and non-negative, to dst.
func AppendTouchList(dst []byte, nodes []int32) []byte {
	// Reserving the longest encoding once and writing by index costs
	// about a third less than an append per byte.
	dst = slices.Grow(dst, binary.MaxVarintLen32*len(nodes))
	out := dst[len(dst):cap(dst)]
	k, prev := 0, int32(-1)
	for _, v := range nodes {
		gap := uint32(v - prev)
		prev = v
		if gap < 0x80 {
			out[k] = byte(gap)
			k++
		} else {
			k += binary.PutUvarint(out[k:], uint64(gap))
		}
	}
	return dst[:len(dst)+k]
}

// TouchListMeets reports whether the touch list names any node of dirty,
// which must be ascending. ok is false when the part of the list it read
// is malformed (see the file comment); the caller must then treat the
// group as damaged. Reading stops at the first node of dirty or once the
// list has passed dirty's last node: the rest cannot name a dirty node,
// whatever it holds. Nodes only ascend, so the universe bound is checked
// once, on the last node read.
func TouchListMeets(list []byte, dirty []int32, universe int64) (meets, ok bool) {
	if len(dirty) == 0 {
		return false, true
	}
	if len(list) == 0 {
		return false, false
	}
	v, k, next := int64(-1), 0, int64(dirty[0])
	for i := 0; i < len(list); {
		gap := uint64(list[i])
		if gap < 0x80 {
			i++
		} else {
			var n int
			if gap, n = binary.Uvarint(list[i:]); n <= 0 || gap > math.MaxInt32 {
				return false, false
			}
			i += n
		}
		if gap == 0 {
			return false, false
		}
		if v += int64(gap); v < next {
			continue
		}
		for v > next {
			if k++; k == len(dirty) {
				return false, v < universe
			}
			next = int64(dirty[k])
		}
		if v == next {
			return true, true
		}
	}
	return false, v < universe
}

// WriteTouch serializes ts to w in the snapshot format, writing every
// chunk's offsets and lists straight from its slices.
func WriteTouch(w io.Writer, ts *TouchSet) error {
	var offsetsLen, dataLen int64
	for c, ch := range ts.Chunks {
		groups := touchGroups(ts.Total, ts.ChunkSize, ts.GroupSize, c)
		if int64(len(ch.Offsets)) != groups+1 || ch.Offsets[0] != 0 || int(ch.Offsets[groups]) != len(ch.Data) {
			return fmt.Errorf("snapshot: malformed touch chunk %d (%d offsets for %d groups, %d bytes)",
				c, len(ch.Offsets), groups, len(ch.Data))
		}
		offsetsLen += groups + 1
		dataLen += int64(len(ch.Data))
	}
	cw := &crcWriter{w: w}
	var hdr [touchHeaderSize]byte
	touchSection.put(hdr[:], ts.StreamEpoch, []uint64{
		uint64(ts.Universe), uint64(ts.Total), uint64(ts.ChunkSize), uint64(ts.GroupSize),
		uint64(offsetsLen), uint64(dataLen),
	})
	if _, err := cw.Write(hdr[:]); err != nil {
		return err
	}
	for _, ch := range ts.Chunks {
		if err := writeInt32s(cw, u32AsI32(ch.Offsets), false); err != nil {
			return err
		}
	}
	if offsetsLen%2 != 0 {
		if _, err := cw.Write(zeroPad[:4]); err != nil {
			return err
		}
	}
	for _, ch := range ts.Chunks {
		if _, err := cw.Write(ch.Data); err != nil {
			return err
		}
	}
	if _, err := cw.Write(zeroPad[:pad8(dataLen)-dataLen]); err != nil {
		return err
	}
	var foot [footerSize]byte
	putU32(foot[:], cw.crc)
	_, err := w.Write(foot[:])
	return err
}

// parseTouchHeader validates the fixed-size prefix; geometry limits bound
// every later allocation.
func parseTouchHeader(b []byte) (ts TouchSet, numChunks, offsetsLen, dataLen int64, err error) {
	var words [6]uint64
	se, err := touchSection.parse(b, words[:])
	if err != nil {
		return ts, 0, 0, 0, err
	}
	ts.StreamEpoch = se
	ts.Universe, ts.Total = int64(words[0]), int64(words[1])
	ts.ChunkSize, ts.GroupSize = int64(words[2]), int64(words[3])
	offsetsLen, dataLen = int64(words[4]), int64(words[5])
	bad := func(format string, a ...any) (TouchSet, int64, int64, int64, error) {
		return ts, 0, 0, 0, fmt.Errorf("%w: "+format, append([]any{ErrFormat}, a...)...)
	}
	switch {
	case ts.Universe < 0 || ts.Universe > math.MaxInt32:
		return bad("touch universe %d out of range", ts.Universe)
	case ts.ChunkSize <= 0 || ts.ChunkSize > math.MaxInt32 || ts.GroupSize <= 0 || ts.ChunkSize%ts.GroupSize != 0:
		return bad("touch chunk size %d with group size %d", ts.ChunkSize, ts.GroupSize)
	case ts.Total < 0 || ts.Total/ts.ChunkSize >= math.MaxInt32:
		return bad("%d touch draws in chunks of %d", ts.Total, ts.ChunkSize)
	}
	numChunks = (ts.Total + ts.ChunkSize - 1) / ts.ChunkSize
	switch {
	case offsetsLen != touchOffsetsLen(ts.Total, ts.ChunkSize, ts.GroupSize) || offsetsLen > math.MaxInt32:
		return bad("%d touch offsets for %d draws in groups of %d", offsetsLen, ts.Total, ts.GroupSize)
	case dataLen < 0 || dataLen > math.MaxInt32:
		return bad("%d touch list bytes", dataLen)
	}
	return ts, numChunks, offsetsLen, dataLen, nil
}

// DecodeTouchNext parses the TouchSet at the start of data and returns it
// with its encoded size, leaving trailing bytes (the rest of a spill
// file) for the caller. It validates the framing only; the lists are
// read where repair needs them. On little-endian hosts the returned
// slices alias data; keep it immutable and alive.
func DecodeTouchNext(data []byte) (*TouchSet, int64, error) {
	ts, numChunks, offsetsLen, dataLen, err := parseTouchHeader(data)
	if err != nil {
		return nil, 0, err
	}
	size := EncodedSizeTouchFor(offsetsLen, dataLen)
	if size > int64(len(data)) {
		return nil, 0, fmt.Errorf("%w: touch header claims %d bytes, have %d", ErrFormat, size, len(data))
	}
	body := data[:size-footerSize]
	if crc32.Checksum(body, crcTable) != getU32(data[size-footerSize:]) {
		return nil, 0, fmt.Errorf("%w", ErrChecksum)
	}
	o := decodeInt32s(data, touchHeaderSize, offsetsLen)
	offsets := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(o))), len(o))
	lists := data[touchHeaderSize+pad8(offsetsLen*4):][:dataLen:dataLen]
	ts.Chunks = make([]TouchChunk, numChunks)
	var at, start int64
	for c := range ts.Chunks {
		groups := touchGroups(ts.Total, ts.ChunkSize, ts.GroupSize, c)
		off := offsets[at : at+groups+1 : at+groups+1]
		at += groups + 1
		if off[0] != 0 {
			return nil, 0, fmt.Errorf("%w: touch chunk %d offsets start at %d", ErrFormat, c, off[0])
		}
		for g := int64(1); g <= groups; g++ {
			if off[g] < off[g-1] {
				return nil, 0, fmt.Errorf("%w: touch chunk %d offsets descend at group %d", ErrFormat, c, g)
			}
		}
		end := start + int64(off[groups])
		if end > dataLen {
			return nil, 0, fmt.Errorf("%w: touch chunk %d lists end at byte %d, past the %d-byte section", ErrFormat, c, end, dataLen)
		}
		ts.Chunks[c] = TouchChunk{Offsets: off, Data: lists[start:end:end]}
		start = end
	}
	if start != dataLen {
		return nil, 0, fmt.Errorf("%w: touch lists fill %d of %d bytes", ErrFormat, start, dataLen)
	}
	return &ts, size, nil
}

// ReadTouch reads exactly one TouchSet from r (leaving any following
// bytes unread) and returns a set owning freshly allocated sections.
func ReadTouch(r io.Reader) (*TouchSet, error) {
	buf := make([]byte, touchHeaderSize)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: reading touch header: %v", ErrFormat, err)
	}
	_, _, offsetsLen, dataLen, err := parseTouchHeader(buf)
	if err != nil {
		return nil, err
	}
	size := EncodedSizeTouchFor(offsetsLen, dataLen)
	for int64(len(buf)) < size {
		n := min(size-int64(len(buf)), maxReadChunk)
		chunk := len(buf)
		buf = append(buf, make([]byte, n)...)
		if _, err := io.ReadFull(r, buf[chunk:]); err != nil {
			return nil, fmt.Errorf("%w: reading %d-byte touch payload: %v", ErrFormat, size, err)
		}
	}
	ts, _, err := DecodeTouchNext(buf)
	if err != nil {
		return nil, err
	}
	// buf is function-local, so aliasing is ownership; nothing to copy.
	return ts, nil
}
