package snapshot

import (
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// This file adds the third blob type of the snapshot format: the per-chunk
// touch masks a pool carries for delta repair. The engine splits every
// chunk of ChunkSize draws into groups of GroupSize draws, each drawn from
// its own stream, and records for every node the groups whose draws
// visited or selected it — one uint32 word per node, bit g for group g.
// When the graph mutates, a group whose draws touched no dirty node
// replays identically on the new graph, so only damaged groups are
// re-drawn.
//
// Each chunk's words are stored in one of two forms. The dense form holds
// a word for every node of the universe (nodes span empty, masks span of
// length Universe); the engine uses it when a chunk touched more than half
// the graph. The sparse form holds the touched nodes in ascending order
// with one nonzero word each (nodes and masks spans of equal length). A
// chunk with both spans empty carries no touch information.
//
// Layout (all fixed-width fields little-endian):
//
//	header (72 B): magic [8]B, version u32, streamEpoch u32,
//	               universe i64, total i64, chunkSize i64, groupSize i64,
//	               numChunks i64, nodesLen i64, masksLen i64
//	nodeOffsets: (numChunks+1) × i32, padded to 8 B
//	maskOffsets: (numChunks+1) × i32, padded to 8 B
//	nodes:       nodesLen      × i32, padded to 8 B
//	masks:       masksLen      × u32, padded to 8 B
//	footer (8 B): CRC-32C of everything before it, then 4 zero bytes
//
// A touch blob never stands alone: it directly follows the pool blob it
// describes in a stream, inheriting that pool's (seed, ns, fingerprint)
// identity, which is why the header carries only the stream epoch and the
// geometry. The geometry (total draws, chunk and group sizes) fixes how
// many groups each chunk holds, so a word with a bit beyond its chunk's
// group count is rejected on decode. The section is optional on read — a
// reader peeks for the magic (IsTouch) and, when absent, falls back to
// treating every group as damaged under a delta, which is always correct,
// just slower.
//
// Version history: 1 stored each chunk's sorted touched nodes without
// masks (whole-chunk damage); 2 stores the per-group masks.
const (
	// TouchVersion is bumped on any incompatible TouchSet layout change.
	TouchVersion    = 2
	touchHeaderSize = 72
)

var touchMagic = [8]byte{0x89, 'A', 'F', 'T', 'O', 'U', 'C', 'H'}

// touchSection describes the touch blob's shared header prefix; its seven
// type-specific words are universe, total, chunkSize, groupSize,
// numChunks, nodesLen, masksLen (touchHeaderSize == sectionHeaderSize(7)).
var touchSection = sectionDesc{magic: touchMagic, version: TouchVersion, name: "touch"}

// TouchSet is the serialized form of a pool's per-chunk touch masks:
// chunk c's nodes are Nodes[NodeOffsets[c]:NodeOffsets[c+1]] and its
// words Masks[MaskOffsets[c]:MaskOffsets[c+1]], in the dense or sparse
// form described above.
type TouchSet struct {
	// StreamEpoch mirrors the accompanying pool blob's stream epoch.
	StreamEpoch uint32
	Universe    int64
	// Total is the pool's draw count; chunk c holds
	// min(ChunkSize, Total − c·ChunkSize) draws in groups of GroupSize.
	Total       int64
	ChunkSize   int64
	GroupSize   int64
	NodeOffsets []int32 // len numChunks+1, NodeOffsets[0] == 0
	MaskOffsets []int32 // len numChunks+1, MaskOffsets[0] == 0
	Nodes       []int32
	Masks       []uint32
}

// NumChunks returns the number of chunks the touch set describes.
func (ts *TouchSet) NumChunks() int { return len(ts.NodeOffsets) - 1 }

// EncodedSizeTouch returns the exact byte size WriteTouch produces for ts.
func EncodedSizeTouch(ts *TouchSet) int64 {
	return EncodedSizeTouchFor(int64(ts.NumChunks()), int64(len(ts.Nodes)), int64(len(ts.Masks)))
}

// EncodedSizeTouchFor returns the encoded size of a touch section with
// the given geometry without materializing it.
func EncodedSizeTouchFor(numChunks, nodesLen, masksLen int64) int64 {
	return touchHeaderSize + 2*pad8((numChunks+1)*4) + pad8(nodesLen*4) + pad8(masksLen*4) + footerSize
}

// IsTouch reports whether b begins with the TouchSet magic — the peek a
// stream reader uses to decide whether an optional touch section follows
// a pool blob.
func IsTouch(b []byte) bool { return touchSection.is(b) }

// u32AsI32 reinterprets mask words as int32s for the shared i32 writer.
func u32AsI32(s []uint32) []int32 {
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// WriteTouch serializes ts to w in the snapshot format.
func WriteTouch(w io.Writer, ts *TouchSet) error {
	numChunks := int64(ts.NumChunks())
	nodesLen, masksLen := int64(len(ts.Nodes)), int64(len(ts.Masks))
	if len(ts.NodeOffsets) == 0 || len(ts.MaskOffsets) != len(ts.NodeOffsets) ||
		int64(ts.NodeOffsets[numChunks]) != nodesLen || int64(ts.MaskOffsets[numChunks]) != masksLen {
		return fmt.Errorf("snapshot: malformed touch set (offsets %d/%d, nodes %d, masks %d)",
			len(ts.NodeOffsets), len(ts.MaskOffsets), nodesLen, masksLen)
	}
	cw := &crcWriter{w: w}
	var hdr [touchHeaderSize]byte
	touchSection.put(hdr[:], ts.StreamEpoch, []uint64{
		uint64(ts.Universe), uint64(ts.Total), uint64(ts.ChunkSize), uint64(ts.GroupSize),
		uint64(numChunks), uint64(nodesLen), uint64(masksLen),
	})
	if _, err := cw.Write(hdr[:]); err != nil {
		return err
	}
	for _, s := range [][]int32{ts.NodeOffsets, ts.MaskOffsets, ts.Nodes, u32AsI32(ts.Masks)} {
		if err := writeInt32s(cw, s, true); err != nil {
			return err
		}
	}
	var foot [footerSize]byte
	putU32(foot[:], cw.crc)
	_, err := w.Write(foot[:])
	return err
}

// parseTouchHeader validates the fixed-size prefix; geometry limits bound
// every later allocation.
func parseTouchHeader(b []byte) (ts TouchSet, numChunks, nodesLen, masksLen int64, err error) {
	var words [7]uint64
	se, err := touchSection.parse(b, words[:])
	if err != nil {
		return ts, 0, 0, 0, err
	}
	ts.StreamEpoch = se
	ts.Universe, ts.Total = int64(words[0]), int64(words[1])
	ts.ChunkSize, ts.GroupSize = int64(words[2]), int64(words[3])
	numChunks, nodesLen, masksLen = int64(words[4]), int64(words[5]), int64(words[6])
	bad := func(format string, a ...any) (TouchSet, int64, int64, int64, error) {
		return ts, 0, 0, 0, fmt.Errorf("%w: "+format, append([]any{ErrFormat}, a...)...)
	}
	switch {
	case ts.Universe < 0 || ts.Universe > math.MaxInt32:
		return bad("touch universe %d out of range", ts.Universe)
	case ts.ChunkSize <= 0 || ts.ChunkSize > math.MaxInt32 || ts.GroupSize <= 0 ||
		ts.ChunkSize%ts.GroupSize != 0 || ts.ChunkSize/ts.GroupSize > 32:
		return bad("touch chunk size %d with group size %d", ts.ChunkSize, ts.GroupSize)
	case numChunks < 0 || numChunks >= math.MaxInt32 || ts.Total < 0 ||
		(ts.Total+ts.ChunkSize-1)/ts.ChunkSize != numChunks:
		return bad("%d touch chunks for %d draws", numChunks, ts.Total)
	case masksLen < 0 || masksLen > numChunks*ts.Universe || masksLen > math.MaxInt32:
		return bad("%d touch masks for %d chunks over %d nodes", masksLen, numChunks, ts.Universe)
	case nodesLen < 0 || nodesLen > masksLen:
		return bad("%d touched nodes for %d masks", nodesLen, masksLen)
	}
	return ts, numChunks, nodesLen, masksLen, nil
}

// DecodeTouchNext parses the TouchSet at the start of data and returns it
// with its encoded size, leaving trailing bytes (the rest of a spill
// file) for the caller. On little-endian hosts the returned slices alias
// data; keep it immutable and alive.
func DecodeTouchNext(data []byte) (*TouchSet, int64, error) {
	ts, numChunks, nodesLen, masksLen, err := parseTouchHeader(data)
	if err != nil {
		return nil, 0, err
	}
	size := EncodedSizeTouchFor(numChunks, nodesLen, masksLen)
	if size > int64(len(data)) {
		return nil, 0, fmt.Errorf("%w: touch header claims %d bytes, have %d", ErrFormat, size, len(data))
	}
	body := data[:size-footerSize]
	if crc32.Checksum(body, crcTable) != getU32(data[size-footerSize:]) {
		return nil, 0, fmt.Errorf("%w", ErrChecksum)
	}
	off := int64(touchHeaderSize)
	ts.NodeOffsets = decodeInt32s(data, off, numChunks+1)
	off += pad8((numChunks + 1) * 4)
	ts.MaskOffsets = decodeInt32s(data, off, numChunks+1)
	off += pad8((numChunks + 1) * 4)
	ts.Nodes = decodeInt32s(data, off, nodesLen)
	off += pad8(nodesLen * 4)
	m := decodeInt32s(data, off, masksLen)
	ts.Masks = unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(m))), len(m))
	if err := ts.validate(); err != nil {
		return nil, 0, err
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
	_, numChunks, nodesLen, masksLen, err := parseTouchHeader(buf)
	if err != nil {
		return nil, err
	}
	size := EncodedSizeTouchFor(numChunks, nodesLen, masksLen)
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

// validOffsets checks that off starts at 0, never descends and ends at n.
func validOffsets(off []int32, n int, name string) error {
	if off[0] != 0 || int64(off[len(off)-1]) != int64(n) {
		return fmt.Errorf("%w: touch %s offsets span [%d, %d], want [0, %d]", ErrFormat, name, off[0], off[len(off)-1], n)
	}
	for c := 1; c < len(off); c++ {
		if off[c] < off[c-1] {
			return fmt.Errorf("%w: touch %s offsets not ascending at %d", ErrFormat, name, c)
		}
	}
	return nil
}

// validate checks the invariants the repair path relies on: both offset
// tables well formed; each chunk dense (a word per node), sparse (nodes
// strictly ascending within the universe, one nonzero word each) or
// empty; and no word naming a group beyond its chunk's group count.
func (ts *TouchSet) validate() error {
	if err := validOffsets(ts.NodeOffsets, len(ts.Nodes), "node"); err != nil {
		return err
	}
	if err := validOffsets(ts.MaskOffsets, len(ts.Masks), "mask"); err != nil {
		return err
	}
	u := int32(ts.Universe)
	for c := 0; c < ts.NumChunks(); c++ {
		nodes := ts.Nodes[ts.NodeOffsets[c]:ts.NodeOffsets[c+1]]
		masks := ts.Masks[ts.MaskOffsets[c]:ts.MaskOffsets[c+1]]
		draws := min(ts.ChunkSize, ts.Total-int64(c)*ts.ChunkSize)
		valid := uint32(uint64(1)<<((draws+ts.GroupSize-1)/ts.GroupSize) - 1)
		switch {
		case len(nodes) == 0 && len(masks) != 0 && len(masks) != int(u):
			return fmt.Errorf("%w: dense touch chunk %d holds %d words for %d nodes", ErrFormat, c, len(masks), u)
		case len(nodes) != 0 && len(nodes) != len(masks):
			return fmt.Errorf("%w: sparse touch chunk %d holds %d nodes and %d words", ErrFormat, c, len(nodes), len(masks))
		}
		prev := int32(-1)
		for i, v := range nodes {
			if v <= prev || v >= u || masks[i] == 0 {
				return fmt.Errorf("%w: touch node %d out of order or unmasked in chunk %d", ErrFormat, v, c)
			}
			prev = v
		}
		for _, m := range masks {
			if m&^valid != 0 {
				return fmt.Errorf("%w: touch word %#x in chunk %d names groups beyond its %d draws", ErrFormat, m, c, draws)
			}
		}
	}
	return nil
}
