// Package rng provides deterministic, splittable pseudo-random sources so
// that every stochastic component of the library (realization sampling,
// threshold draws, generators, experiment pair selection) is reproducible
// for a fixed seed, independent of goroutine scheduling.
//
// Two kinds of source coexist:
//
//   - Stream, a value-type xoshiro256++ generator used by every sampling
//     hot path. Streams are derived per (seed, namespace, index) via
//     DerivedStream, so results are pure functions of the seed regardless
//     of worker count. The touch-recording kernels (pool and p_max ledger
//     chunks) give every draw its own stream, index chunk·ChunkSize +
//     draw; one-shot estimation reads one stream per chunk (see
//     StreamEpoch).
//   - *math/rand.Rand from DeriveRand, for cold paths — generators,
//     experiment pair selection — where the heavyweight seeding cost is
//     irrelevant.
//
// The exact draw protocol of Stream is versioned by StreamEpoch (see
// stream.go): artifacts whose bytes depend on stream contents — pool and
// p_max snapshots — record the epoch they were sampled under, and loaders
// reject blobs from another epoch so two protocol generations are never
// silently mixed. Rejection degrades to resampling, never to a wrong
// answer.
package rng

import (
	"math/rand"
)

// splitmix64 advances and mixes a 64-bit state; used to derive independent
// stream seeds from a root seed. This is the standard SplitMix64 finalizer.
func splitmix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive returns a deterministic child seed for (seed, stream) without
// mutating any state; use it when streams are indexed rather than
// sequential (e.g. one stream per worker id).
func Derive(seed int64, stream uint64) int64 {
	return int64(splitmix64(uint64(seed) ^ splitmix64(stream+0x51ed2701)))
}

// DeriveRand returns a *rand.Rand for (seed, stream); see Derive.
func DeriveRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(Derive(seed, stream)))
}

// DeriveStream returns a deterministic child seed for (seed, namespace,
// index). The namespace keeps indexed stream families from distinct call
// sites (pool sampling, estimation, p_max draws, …) decorrelated even when
// they share a root seed and overlapping index ranges — deriving by index
// alone would hand two phases of one run identical streams.
func DeriveStream(seed int64, namespace, index uint64) int64 {
	return Derive(Derive(seed, namespace), index)
}
