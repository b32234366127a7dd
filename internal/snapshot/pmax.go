package snapshot

import (
	"fmt"
	"io"
	"math"
)

// This file adds the second blob type of the snapshot format: the p_max
// estimator state. The engine's chunked stopping-rule estimator
// (engine.PmaxEstimator) is, like a pool, a pure function of its (seed,
// namespace) stream identity and a total draw count — the full ledger is
// reconstructible from the global draw indices of the successful
// (type-1) draws. A PmaxState blob therefore carries exactly that:
// identity, total draws, and the ascending success indices.
//
// Layout (all fixed-width fields little-endian):
//
//	header (56 B): magic [8]B, version u32, streamEpoch u32,
//	               seed i64, ns u64, fingerprint u64,
//	               draws i64, numSucc i64
//	successes: numSucc × i64
//	footer (8 B): CRC-32C of everything before it, then 4 zero bytes
//
// Like pool blobs, the total size is a multiple of 8, so pool and p_max
// sections concatenate freely in one spill record. The distinct magic is
// what lets a reader peek whether an optional p_max section follows the
// pools (see IsPmax).
const (
	// PmaxVersion is bumped on any incompatible PmaxState layout change.
	PmaxVersion    = 1
	pmaxHeaderSize = 56
)

var pmaxMagic = [8]byte{0x89, 'A', 'F', 'P', 'M', 'A', 'X', '\n'}

// pmaxSection describes the p_max blob's shared header prefix; its five
// type-specific words are seed, ns, fingerprint, draws, numSucc
// (pmaxHeaderSize == sectionHeaderSize(5)).
var pmaxSection = sectionDesc{magic: pmaxMagic, version: PmaxVersion, name: "pmax"}

// PmaxState is the serialized form of one chunked p_max estimator ledger:
// Draws total Bernoulli draws from the (Seed, NS) stream family, of which
// the draws at the strictly ascending global indices Successes were
// type-1. Fingerprint identifies the problem instance, so a loader can
// reject state sampled on a different graph.
type PmaxState struct {
	Seed        int64
	NS          uint64
	Fingerprint uint64
	// StreamEpoch records the rng draw-protocol generation the ledger
	// was sampled under; part of the stream identity like Seed and NS.
	// Pre-epoch blobs carry 0 (the slot used to be written as reserved
	// zero) and are rejected by loaders.
	StreamEpoch uint32
	Draws       int64
	Successes   []int64 // strictly ascending, in [0, Draws)
}

// EncodedSizePmax returns the exact byte size WritePmax produces for st.
func EncodedSizePmax(st *PmaxState) int64 {
	return encodedSizePmax(int64(len(st.Successes)))
}

func encodedSizePmax(numSucc int64) int64 {
	return pmaxHeaderSize + numSucc*8 + footerSize
}

// IsPmax reports whether b begins with the PmaxState magic — the peek a
// decoder uses to decide whether an optional p_max section follows the
// pool sections in a spill record.
func IsPmax(b []byte) bool { return pmaxSection.is(b) }

// WritePmax serializes st to w in the snapshot format.
func WritePmax(w io.Writer, st *PmaxState) error {
	if err := st.validate(); err != nil {
		return fmt.Errorf("snapshot: malformed pmax state: %w", err)
	}
	cw := &crcWriter{w: w}
	var hdr [pmaxHeaderSize]byte
	pmaxSection.put(hdr[:], st.StreamEpoch, []uint64{
		uint64(st.Seed), st.NS, st.Fingerprint,
		uint64(st.Draws), uint64(len(st.Successes)),
	})
	if _, err := cw.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeInt64s(cw, st.Successes); err != nil {
		return err
	}
	return writeFooter(w, cw)
}

// parsePmaxHeader validates the fixed-size prefix; the success count must
// not exceed what the claimed draw total could have produced, bounding
// every later allocation.
func parsePmaxHeader(b []byte) (PmaxState, int64, error) {
	var st PmaxState
	var words [5]uint64
	se, err := pmaxSection.parse(b, words[:])
	if err != nil {
		return st, 0, err
	}
	st.StreamEpoch = se
	st.Seed = int64(words[0])
	st.NS = words[1]
	st.Fingerprint = words[2]
	st.Draws = int64(words[3])
	numSucc := int64(words[4])
	switch {
	case st.Draws < 0:
		return st, 0, fmt.Errorf("%w: negative draws %d", ErrFormat, st.Draws)
	case numSucc < 0 || numSucc > st.Draws || numSucc >= math.MaxInt32:
		return st, 0, fmt.Errorf("%w: %d successes for %d draws", ErrFormat, numSucc, st.Draws)
	}
	return st, numSucc, nil
}

// DecodePmaxNext parses the PmaxState at the start of data and returns
// it with its encoded size, leaving trailing bytes (the rest of a spill
// record) for the caller. When the header frames a section that data
// holds but its contents fail the checksum or validation, the error comes
// with the section's size, so a caller treating the section as
// best-effort can skip it; the size is 0 when the framing itself is bad.
// On little-endian hosts the returned Successes slice aliases data (keep
// it immutable and alive); on other hosts or misaligned input it is
// copied.
func DecodePmaxNext(data []byte) (*PmaxState, int64, error) {
	st, numSucc, err := parsePmaxHeader(data)
	if err != nil {
		return nil, 0, err
	}
	size := encodedSizePmax(numSucc)
	if size > int64(len(data)) {
		return nil, 0, fmt.Errorf("%w: pmax header claims %d bytes, have %d", ErrFormat, size, len(data))
	}
	if err := checkFooter(data, size); err != nil {
		return nil, size, err
	}
	st.Successes = decodeInt64s(data, pmaxHeaderSize, numSucc)
	if err := st.validate(); err != nil {
		return nil, size, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return &st, size, nil
}

// validate checks the semantic invariant the estimator relies on: success
// indices strictly ascending within [0, Draws).
func (st *PmaxState) validate() error {
	prev := int64(-1)
	for i, d := range st.Successes {
		if d <= prev || d >= st.Draws {
			return fmt.Errorf("success index %d out of order at %d (draws %d)", d, i, st.Draws)
		}
		prev = d
	}
	return nil
}
