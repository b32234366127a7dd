// Package snapshot is the pool persistence layer: it serializes a CSR
// realization pool (the flat path arena, int32 offsets, per-path draw
// indices, universe and total draw count, plus the seed and stream
// namespace that produced it) to a versioned, checksummed, little-endian
// binary blob, and decodes it back in place: DecodeNext parses a blob in
// a byte slice, zero-copy where the host and alignment allow, and reports
// its size so the concatenated sections of a spill record decode in
// sequence from one buffer (ReadAll fills one from a stream).
//
// Because pool contents are a pure function of (seed, namespace, total)
// — the engine's chunked-sampling determinism contract — a loaded pool
// is byte-identical to a freshly sampled one, so persistence is purely a
// latency tier: answers computed from a snapshot equal answers computed
// from resampling, and a corrupted or version-skewed snapshot can always
// fall back to resampling.
//
// Layout (all fixed-width fields little-endian):
//
//	header (72 B): magic [8]B, version u32, streamEpoch u32,
//	               seed i64, ns u64, fingerprint u64,
//	               universe i64, total i64,
//	               numPaths i64, arenaLen i64
//	offsets:  (numPaths+1) × i32, padded to 8 B
//	pathDraw:  numPaths    × i64
//	arena:     arenaLen    × i32, padded to 8 B (each path ascending)
//	footer (8 B): CRC-32C of everything before it, then 4 zero bytes
//
// CRC-32C (Castagnoli) is hardware-accelerated on amd64/arm64, which
// keeps checksum verification a small fraction of a load — the spill
// tier's reload-beats-resample margin rests on it.
//
// Every section starts 8-byte aligned and the blob's total size is a
// multiple of 8, so snapshots can be concatenated in one file and each
// still decodes zero-copy at its natural alignment.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// Format constants. Version is bumped on any incompatible change to the
// layout or its meaning; DecodeNext rejects other versions with
// ErrVersion so callers fall back to resampling instead of misreading
// bytes. Version history: 1 stored each path in walk order; 2 stores it
// ascending.
const (
	Version    = 2
	headerSize = 72
	footerSize = 8
)

var magic = [8]byte{0x89, 'A', 'F', 'S', 'N', 'A', 'P', '\n'}

// poolSection describes the pool blob's shared header prefix; its seven
// type-specific words are seed, ns, fingerprint, universe, total,
// numPaths, arenaLen (headerSize == sectionHeaderSize(7)).
var poolSection = sectionDesc{magic: magic, version: Version, name: "pool"}

// crcTable is the CRC-32C (Castagnoli) table shared by writers and
// readers.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrFormat reports bytes that are not a snapshot at all (bad magic,
	// impossible header geometry, or a truncated blob).
	ErrFormat = errors.New("snapshot: not a valid snapshot")
	// ErrVersion reports a snapshot written by an incompatible format
	// version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrChecksum reports a snapshot whose payload does not match its
	// CRC-32C footer.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
)

// Pool is the serialized form of one CSR realization pool. Path i is
// Arena[Offsets[i]:Offsets[i+1]], its node set in strictly ascending
// order, and was produced by draw PathDraw[i] (strictly ascending, in
// [0, Total)). Seed and NS identify the stream
// family that sampled it, and Fingerprint the problem instance (graph
// structure, weights, source/target), so a loader can verify a snapshot
// belongs to the exact session it is being restored into — a snapshot
// of a different graph with the same node count must not be adopted.
type Pool struct {
	Seed        int64
	NS          uint64
	Fingerprint uint64
	// StreamEpoch records the rng draw-protocol generation the pool was
	// sampled under (rng.StreamEpoch at write time); it is part of the
	// stream identity, like Seed and NS. Blobs written before the field
	// existed carry 0 (the header slot was written as reserved zero), the
	// epoch of the retired math/rand protocol — exactly what makes
	// loaders reject them.
	StreamEpoch uint32
	Universe    int64
	Total       int64
	Offsets     []int32 // len numPaths+1, Offsets[0] == 0
	PathDraw    []int64 // len numPaths
	Arena       []int32 // node ids in [0, Universe)
}

// NumPaths returns the number of serialized type-1 paths.
func (p *Pool) NumPaths() int { return len(p.Offsets) - 1 }

// pad8 returns n rounded up to a multiple of 8.
func pad8(n int64) int64 { return (n + 7) &^ 7 }

// EncodedSize returns the exact byte size Write will produce for p.
func EncodedSize(p *Pool) int64 {
	return encodedSize(int64(p.NumPaths()), int64(len(p.Arena)))
}

func encodedSize(numPaths, arenaLen int64) int64 {
	return headerSize + pad8((numPaths+1)*4) + numPaths*8 + pad8(arenaLen*4) + footerSize
}

// hostLittle reports whether the host is little-endian; on little-endian
// hosts sections are written/read as raw slice memory, otherwise
// element-wise.
var hostLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Short aliases over encoding/binary's little-endian accessors
// (compiler-intrinsified, allocation-free).
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getU32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }

// int32Bytes views s as raw little-endian bytes (little-endian hosts
// only; callers must check hostLittle).
func int32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

func int64Bytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

// crcWriter feeds everything written through the CRC accumulator.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crcTable, p)
	return cw.w.Write(p)
}

var zeroPad [8]byte

// Write serializes p to w in the snapshot format. The blob's size is
// EncodedSize(p); on little-endian hosts the sections are written
// directly from the slices with no intermediate copy.
func Write(w io.Writer, p *Pool) error {
	numPaths := int64(p.NumPaths())
	arenaLen := int64(len(p.Arena))
	if len(p.Offsets) == 0 || p.Offsets[0] != 0 || int64(len(p.PathDraw)) != numPaths {
		return fmt.Errorf("snapshot: malformed pool (offsets %d, pathDraw %d)", len(p.Offsets), len(p.PathDraw))
	}
	if int64(p.Offsets[numPaths]) != arenaLen {
		return fmt.Errorf("snapshot: malformed pool (last offset %d, arena %d)", p.Offsets[numPaths], arenaLen)
	}
	cw := &crcWriter{w: w}
	var hdr [headerSize]byte
	poolSection.put(hdr[:], p.StreamEpoch, []uint64{
		uint64(p.Seed), p.NS, p.Fingerprint,
		uint64(p.Universe), uint64(p.Total),
		uint64(numPaths), uint64(arenaLen),
	})
	if _, err := cw.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeInt32s(cw, p.Offsets, true); err != nil {
		return err
	}
	if err := writeInt64s(cw, p.PathDraw); err != nil {
		return err
	}
	if err := writeInt32s(cw, p.Arena, true); err != nil {
		return err
	}
	return writeFooter(w, cw)
}

func writeInt32s(cw *crcWriter, s []int32, pad bool) error {
	count := len(s)
	if hostLittle {
		if _, err := cw.Write(int32Bytes(s)); err != nil {
			return err
		}
	} else {
		var buf [4096]byte
		for len(s) > 0 {
			n := min(len(s), len(buf)/4)
			for i := 0; i < n; i++ {
				putU32(buf[i*4:], uint32(s[i]))
			}
			if _, err := cw.Write(buf[:n*4]); err != nil {
				return err
			}
			s = s[n:]
		}
	}
	if pad && count%2 != 0 {
		_, err := cw.Write(zeroPad[:4])
		return err
	}
	return nil
}

func writeInt64s(cw *crcWriter, s []int64) error {
	if hostLittle {
		_, err := cw.Write(int64Bytes(s))
		return err
	}
	var buf [4096]byte
	for len(s) > 0 {
		n := min(len(s), len(buf)/8)
		for i := 0; i < n; i++ {
			putU64(buf[i*8:], uint64(s[i]))
		}
		if _, err := cw.Write(buf[:n*8]); err != nil {
			return err
		}
		s = s[n:]
	}
	return nil
}

// header is the decoded fixed-size prefix of a snapshot.
type header struct {
	streamEpoch uint32
	seed        int64
	ns          uint64
	fingerprint uint64
	universe    int64
	total       int64
	numPaths    int64
	arenaLen    int64
}

// parseHeader validates the fixed-size prefix. Geometry limits bound
// every later allocation: numPaths and arenaLen must fit int32 offsets
// and must not exceed what total draws could have produced.
func parseHeader(b []byte) (header, error) {
	var h header
	var words [7]uint64
	se, err := poolSection.parse(b, words[:])
	if err != nil {
		return h, err
	}
	h.streamEpoch = se
	h.seed = int64(words[0])
	h.ns = words[1]
	h.fingerprint = words[2]
	h.universe = int64(words[3])
	h.total = int64(words[4])
	h.numPaths = int64(words[5])
	h.arenaLen = int64(words[6])
	switch {
	case h.universe < 0 || h.universe > math.MaxInt32:
		return h, fmt.Errorf("%w: universe %d out of range", ErrFormat, h.universe)
	case h.total < 0:
		return h, fmt.Errorf("%w: negative total %d", ErrFormat, h.total)
	case h.numPaths < 0 || h.numPaths > h.total || h.numPaths >= math.MaxInt32:
		return h, fmt.Errorf("%w: %d paths for %d draws", ErrFormat, h.numPaths, h.total)
	case h.arenaLen < 0 || h.arenaLen > math.MaxInt32:
		return h, fmt.Errorf("%w: arena of %d nodes overflows int32 offsets", ErrFormat, h.arenaLen)
	}
	return h, nil
}

// aligned4 / aligned8 report whether the slice data at b[off:] sits at
// the natural alignment for the element width; zero-copy casting is only
// done when it does (sections are laid out aligned, but DecodeNext
// accepts arbitrary caller slices).
func aligned(b []byte, off int64, width int64) bool {
	if int64(len(b)) <= off {
		return true // empty section; never dereferenced
	}
	return uintptr(unsafe.Pointer(&b[off]))%uintptr(width) == 0
}

// DecodeNext parses the snapshot at the start of data and returns it
// together with its encoded size, so consecutive snapshots in one buffer
// (e.g. a spill record holding a solve pool and an evaluation pool) can be
// decoded in sequence. Sizes claimed by the header are validated against
// len(data) before any slice is materialized: corrupted or adversarial
// bytes produce an error, never a panic or an over-allocation. On
// little-endian hosts the returned pool's slices alias data — the caller
// must keep data immutable and alive for the pool's lifetime; on other
// hosts or misaligned input the sections are copied.
func DecodeNext(data []byte) (*Pool, int64, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, 0, err
	}
	size := encodedSize(h.numPaths, h.arenaLen)
	if size > int64(len(data)) {
		return nil, 0, fmt.Errorf("%w: header claims %d bytes, have %d", ErrFormat, size, len(data))
	}
	if err := checkFooter(data, size); err != nil {
		return nil, 0, err
	}
	p := &Pool{Seed: h.seed, NS: h.ns, Fingerprint: h.fingerprint, StreamEpoch: h.streamEpoch, Universe: h.universe, Total: h.total}
	off := int64(headerSize)
	p.Offsets = decodeInt32s(data, off, h.numPaths+1)
	off += pad8((h.numPaths + 1) * 4)
	p.PathDraw = decodeInt64s(data, off, h.numPaths)
	off += h.numPaths * 8
	p.Arena = decodeInt32s(data, off, h.arenaLen)
	if err := p.validate(); err != nil {
		return nil, 0, err
	}
	return p, size, nil
}

func decodeInt32s(data []byte, off, n int64) []int32 {
	if n == 0 {
		return []int32{}
	}
	if hostLittle && aligned(data, off, 4) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&data[off])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(getU32(data[off+int64(i)*4:]))
	}
	return out
}

func decodeInt64s(data []byte, off, n int64) []int64 {
	if n == 0 {
		return []int64{}
	}
	if hostLittle && aligned(data, off, 8) {
		return unsafe.Slice((*int64)(unsafe.Pointer(&data[off])), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(getU64(data[off+int64(i)*8:]))
	}
	return out
}

// validate checks the semantic invariants the engine relies on, so a
// snapshot that passes can be handed to the coverage scan and set-cover
// folding without further bounds checks. Every path is strictly
// ascending with every node inside the universe: the fold hashes that
// form without copying, and the scan takes a path's last node as its
// largest, so its length and universe filters are sound.
func (p *Pool) validate() error {
	n := p.NumPaths()
	if p.Offsets[0] != 0 {
		return fmt.Errorf("%w: first offset %d", ErrFormat, p.Offsets[0])
	}
	for i := 0; i < n; i++ {
		if p.Offsets[i+1] < p.Offsets[i] {
			return fmt.Errorf("%w: offsets not ascending at %d", ErrFormat, i)
		}
	}
	if int64(p.Offsets[n]) != int64(len(p.Arena)) {
		return fmt.Errorf("%w: last offset %d, arena %d", ErrFormat, p.Offsets[n], len(p.Arena))
	}
	prev := int64(-1)
	for i, d := range p.PathDraw {
		if d <= prev || d >= p.Total {
			return fmt.Errorf("%w: path draw %d out of order at %d", ErrFormat, d, i)
		}
		prev = d
	}
	// Every node must be in the universe and every path strictly
	// ascending. The arena descends (or repeats) at a set of positions,
	// each of which must start a path. Both passes are flat and count
	// without a data-dependent branch: a loop per path mispredicts its
	// exit once per path, which made loading short-path pools ~30%
	// slower.
	u := uint32(p.Universe)
	falls := 0
	for k, v := range p.Arena {
		if uint32(v) >= u {
			return fmt.Errorf("%w: node %d out of universe at %d", ErrFormat, v, k)
		}
		if k > 0 {
			falls += int(1 ^ uint32(p.Arena[k-1]-v)>>31) // nodes are ≥ 0: no overflow
		}
	}
	for i := 1; i < n; i++ {
		if o := p.Offsets[i]; o > p.Offsets[i-1] && int(o) < len(p.Arena) {
			falls -= int(1 ^ uint32(p.Arena[o-1]-p.Arena[o])>>31)
		}
	}
	if falls != 0 {
		return fmt.Errorf("%w: paths not strictly ascending at %d places", ErrFormat, falls)
	}
	return nil
}

// ReadAll reads r to its end into one buffer for the Decode functions,
// sized exactly when r reports the length it holds (bytes.Reader,
// bytes.Buffer), so a stream entry point costs one allocation and no
// copy beyond the read. A read error wraps ErrFormat.
func ReadAll(r io.Reader) ([]byte, error) {
	var buf []byte
	var err error
	if l, ok := r.(interface{ Len() int }); ok {
		buf = make([]byte, l.Len())
		_, err = io.ReadFull(r, buf)
	} else {
		buf, err = io.ReadAll(r)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: reading: %v", ErrFormat, err)
	}
	return buf, nil
}
