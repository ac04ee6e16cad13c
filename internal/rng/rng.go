// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used by the SIMT simulator and the workload generators.
//
// Determinism matters here: every experiment in this repository must be
// exactly reproducible, including per-thread random sequences inside
// simulated kernels (Monte Carlo trip counts, Russian-roulette termination,
// and so on). The generator is SplitMix64 (Steele, Lea, Flood 2014), which
// is tiny, fast, passes BigCrush when used as a 64-bit generator, and is
// trivially splittable: independent streams are derived by hashing a
// (seed, stream) pair.
package rng

import "math"

// golden is 2^64 / phi, the SplitMix64 increment.
const golden = 0x9e3779b97f4a7c15

// Source is a deterministic 64-bit PRNG. The zero value is a valid
// generator seeded with 0.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split returns an independent Source derived from seed and stream.
// Distinct (seed, stream) pairs yield decorrelated sequences; the same
// pair always yields the same sequence.
func Split(seed, stream uint64) *Source {
	// Mix the stream id through one SplitMix64 round so that consecutive
	// stream ids land far apart in the state space.
	return &Source{state: mix(seed ^ mix(stream))}
}

// Reseed resets s in place to the exact state Split(seed, stream) would
// construct, so pooled per-lane sources can be reused across launches
// without reallocating.
func (s *Source) Reseed(seed, stream uint64) {
	s.state = mix(seed ^ mix(stream))
}

func mix(z uint64) uint64 {
	z += golden
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next value in the sequence.
func (s *Source) Uint64() uint64 {
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a non-negative int64.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Range returns a value in [lo, hi]. It panics if hi < lo.
func (s *Source) Range(lo, hi int) int {
	if hi < lo {
		panic("rng: Range called with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Float64 returns a value in [0, 1) with 53 bits of precision. The
// outer float64(…) keeps an arm64 caller from fusing this product into
// its own sum once Float64 is inlined.
func (s *Source) Float64() float64 {
	return float64(float64(s.Uint64()>>11) * (1.0 / (1 << 53)))
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(u)
}

// Geometric returns the number of Bernoulli(p) trials up to and including
// the first success, i.e. a geometric variate with support {1, 2, ...}.
// It panics unless 0 < p <= 1.
func (s *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs 0 < p <= 1")
	}
	n := 1
	for s.Float64() >= p {
		n++
	}
	return n
}
