// Package rng provides a small, fast, deterministic random number
// generator for experiments. Every simulation and workload in selfishnet
// takes an explicit *rng.RNG so runs are reproducible from a seed; the
// package never touches the global math/rand state or the wall clock.
//
// The core generator is SplitMix64 (Steele, Lea, Flood: "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014), which passes BigCrush and
// is trivially seedable.
package rng

import "math"

// RNG is a deterministic pseudorandom generator. It is not safe for
// concurrent use; create one per goroutine via Split.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. Distinct seeds give
// independent-looking streams; seed 0 is valid.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives a new independent generator from r. The parent advances,
// so successive Splits give distinct children.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics; callers control n, so this is a programming error.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	tLo, tHi := t&mask, t>>32
	t = aLo*bHi + tLo
	lo |= (t & mask) << 32
	hi = aHi*bHi + tHi + t>>32
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponentially distributed sample with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with rate <= 0")
	}
	u := r.Float64()
	// 1-u is in (0, 1], avoiding log(0).
	return -math.Log(1-u) / rate
}

// Norm returns a standard normal sample via the Marsaglia polar method.
func (r *RNG) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomly permutes the first n elements using swap, matching the
// math/rand Shuffle contract.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Zipf samples from a Zipf distribution over {0, ..., n-1} with exponent
// s > 0: P(k) ∝ 1/(k+1)^s. Construct once, sample many times.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler over n items with exponent s. n must be
// positive and s non-negative (s = 0 is uniform).
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf called with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws one Zipf-distributed index using r.
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
