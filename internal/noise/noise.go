// Package noise provides the random noise primitives that Blowfish and
// differential privacy mechanisms are calibrated with: Laplace, two-sided
// geometric, and Gaussian samplers over deterministically seeded streams.
//
// All experiment code seeds Sources explicitly so every figure regenerates
// identically run-to-run.
//
// A Source is one sequential stream (NewSource), or one release's generator
// derived from a Key and the release's ordinal (Reseed) — the counter-based
// design of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"
// (SC 2011). Keyed noise is a pure function of (key, ordinal): releases
// draw in parallel, and a restarted server resumes from the ordinal alone.
package noise

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
)

// pcgStream is the fixed PCG stream-selector constant NewSource uses;
// seeds alone distinguish sequential streams.
const pcgStream = 0x9e3779b97f4a7c15

// Source is a deterministic stream of random variates. It is not safe for
// concurrent use, and it must not be copied once used. The zero value is
// ready for Reseed.
type Source struct {
	pcg rand.PCG
	rng *rand.Rand // draws from pcg
	// Draws write the PCG state: the padding keeps Sources that releases
	// draw from in parallel off one cache line.
	_ [64]byte
}

// NewSource creates a Source seeded with the given value.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.pcg.Seed(uint64(seed), pcgStream)
	s.rng = rand.New(&s.pcg)
	return s
}

// Key is the secret a keyed Source derives each release's generator from.
type Key [32]byte

// SeedKey derives a Key from a 64-bit seed: SHA-256 of its little-endian
// bytes, so the noise is exactly as predictable as the seed.
func SeedKey(seed int64) Key {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	return sha256.Sum256(b[:])
}

// ResourceKey derives the Key of a named resource: SHA-256 of the seed's
// little-endian bytes followed by the id. A server never reuses an id, so
// no two of its resources share a key, and the key does not depend on
// where or in what order the resource was created.
func ResourceKey(seed int64, id string) Key {
	msg := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+len(id)), uint64(seed))
	return sha256.Sum256(append(msg, id...))
}

// Reseed restarts s as the generator for (key, ordinal): SHA-256(key ‖
// ordinal) seeds the PCG in place, without allocating after the first call.
func (s *Source) Reseed(key *Key, ordinal uint64) {
	var msg [len(Key{}) + 8]byte
	copy(msg[:], key[:])
	binary.LittleEndian.PutUint64(msg[len(Key{}):], ordinal)
	h := sha256.Sum256(msg[:])
	seed1, seed2 := binary.LittleEndian.Uint64(h[:8]), binary.LittleEndian.Uint64(h[8:16])
	s.pcg.Seed(seed1, seed2)
	if s.rng == nil {
		s.rng = rand.New(&s.pcg)
	}
}

// Uniform returns a variate uniform on [0, 1).
func (s *Source) Uniform() float64 { return s.rng.Float64() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand.
func (s *Source) Intn(n int) int { return s.rng.IntN(n) }

// Int63n returns a uniform int64 in [0, n).
func (s *Source) Int63n(n int64) int64 { return s.rng.Int64N(n) }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Laplace returns a variate from the Laplace distribution with mean 0 and
// the given scale b (density ∝ exp(-|x|/b), variance 2b²). The Laplace
// mechanism of Definition 2.3 and Theorem 5.1 draws noise with
// b = sensitivity/ε. A scale of 0 returns exactly 0 (the noiseless release
// that Blowfish permits when a policy drives sensitivity to zero); negative
// scales panic.
func (s *Source) Laplace(scale float64) float64 {
	if scale < 0 || math.IsNaN(scale) {
		panic(fmt.Sprintf("noise: invalid Laplace scale %v", scale))
	}
	if scale == 0 {
		return 0
	}
	u := s.rng.Float64()
	for u == 0 { // open the interval at 0 to keep log finite
		u = s.rng.Float64()
	}
	if u < 0.5 {
		return scale * math.Log(2*u)
	}
	return -scale * math.Log(2*(1-u))
}

// SkipLaplace moves s past n Laplace draws of positive scale without
// computing them: it consumes the uniforms those draws would, each one
// redrawn while it is zero, so every later variate is the one it would
// have been. A zero-scale draw consumes nothing; do not count it in n.
func (s *Source) SkipLaplace(n int) {
	for ; n > 0; n-- {
		for s.rng.Float64() == 0 {
		}
	}
}

// TwoSidedGeometric returns an integer variate Z with
// P[Z = z] = (1-α)/(1+α) · α^|z| for α = exp(-1/scale), the discrete
// analogue of Laplace(scale). It is exact (difference of two geometric
// variates) and is the noise behind the geometric mechanism. A scale of 0
// returns 0.
func (s *Source) TwoSidedGeometric(scale float64) int64 {
	if scale < 0 || math.IsNaN(scale) {
		panic(fmt.Sprintf("noise: invalid geometric scale %v", scale))
	}
	if scale == 0 {
		return 0
	}
	alpha := math.Exp(-1 / scale)
	return s.geometric(alpha) - s.geometric(alpha)
}

// geometric samples G on {0,1,2,...} with P[G=k] = (1-α)α^k via inversion.
func (s *Source) geometric(alpha float64) int64 {
	u := s.rng.Float64()
	for u == 0 {
		u = s.rng.Float64()
	}
	// P[G >= k] = α^k, so G = floor(log(u)/log(α)).
	return int64(math.Floor(math.Log(u) / math.Log(alpha)))
}

// Gaussian returns a variate from N(0, sigma²).
func (s *Source) Gaussian(sigma float64) float64 {
	if sigma < 0 || math.IsNaN(sigma) {
		panic(fmt.Sprintf("noise: invalid Gaussian sigma %v", sigma))
	}
	return s.rng.NormFloat64() * sigma
}
