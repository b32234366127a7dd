package rng

import "math/bits"

// StreamEpoch identifies the generation of the draw protocol: the PRNG
// family (xoshiro256++ seeded by splitmix64) together with the draw
// primitives built on it (Float64 from the top 53 bits, Intn by
// multiply-shift). Any change to either alters which realizations a
// fixed (seed, namespace, index) stream produces, so pool and p_max
// snapshots embed the epoch alongside their stream identity and loaders
// reject blobs from another epoch — the caller falls back to resampling,
// which is always answer-correct under the new protocol.
//
// Epoch history:
//
//	0 — math/rand (Go 1 LCG-based source) streams; retired.
//	1 — xoshiro256++ value streams, one stream per 2048-draw chunk;
//	    retired.
//	2 — xoshiro256++ value streams; the touch-recording kernels (pool
//	    chunks and p_max ledger chunks) read one stream per 64-draw
//	    group, index chunk·32 + group, so a graph delta re-draws single
//	    groups instead of whole chunks (current).
const StreamEpoch uint32 = 2

// Stream is a value-type xoshiro256++ generator: 4 words of state, no
// heap allocation, methods cheap enough to inline into sampling loops.
// It replaces *math/rand.Rand in every chunk kernel — seeding a Stream
// costs four splitmix64 rounds instead of math/rand's 607-word lattice
// initialization, which used to dominate short chunks.
//
// A Stream is NOT safe for concurrent use; it is meant to live on the
// stack of one sampling loop. The zero value is usable but fixed —
// always derive via NewStream or DerivedStream.
type Stream struct {
	s0, s1, s2, s3 uint64
}

// NewStream returns a stream seeded from seed by four rounds of
// splitmix64, the initialization recommended by the xoshiro authors.
func NewStream(seed int64) Stream {
	z := uint64(seed)
	var st Stream
	st.s0 = splitmix64(z)
	z += 0x9e3779b97f4a7c15
	st.s1 = splitmix64(z)
	z += 0x9e3779b97f4a7c15
	st.s2 = splitmix64(z)
	z += 0x9e3779b97f4a7c15
	st.s3 = splitmix64(z)
	if st.s0|st.s1|st.s2|st.s3 == 0 {
		// The all-zero state is the one fixed point of the generator;
		// splitmix64 cannot in fact produce it from any seed, but guard
		// anyway so the invariant is local.
		st.s0 = 0x9e3779b97f4a7c15
	}
	return st
}

// DerivedStream returns the stream for (seed, namespace, index): the
// Stream equivalent of DeriveStreamRand, using the same DeriveStream
// child-seed derivation so stream families from distinct call sites stay
// decorrelated.
func DerivedStream(seed int64, namespace, index uint64) Stream {
	return NewStream(DeriveStream(seed, namespace, index))
}

// Uint64 returns the next 64 uniform bits (xoshiro256++).
func (st *Stream) Uint64() uint64 {
	r := bits.RotateLeft64(st.s0+st.s3, 23) + st.s0
	t := st.s1 << 17
	st.s2 ^= st.s0
	st.s3 ^= st.s1
	st.s1 ^= st.s2
	st.s0 ^= st.s3
	st.s2 ^= t
	st.s3 = bits.RotateLeft64(st.s3, 45)
	return r
}

// Float64 returns a uniform float64 in [0, 1) built from the top 53 bits.
func (st *Stream) Float64() float64 {
	return float64(st.Uint64()>>11) * 0x1p-53
}

// Intn returns a uniform integer in [0, n) for n > 0 by multiply-shift
// (Lemire): the high word of u·n over the full 64-bit range. It consumes
// exactly one Uint64 — no rejection loop — so stream consumption is a
// fixed function of the draw protocol; the price is a selection bias of
// at most n·2⁻⁶⁴ per outcome, many orders below the Monte-Carlo noise
// floor of any estimate built on it. Behavior for n ≤ 0 is undefined.
func (st *Stream) Intn(n int) int {
	hi, _ := bits.Mul64(st.Uint64(), uint64(n))
	return int(hi)
}
