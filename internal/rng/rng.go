// Package rng provides deterministic, seedable pseudo-random number
// generation and the variate distributions used by the simulator.
//
// The package deliberately avoids math/rand's global state: every simulation
// entity owns an independent Stream so that replications are reproducible
// and perturbing one traffic source does not shift the random numbers drawn
// by any other (common random numbers across design points).
package rng

import (
	"fmt"
	"math"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used both for seeding xoshiro streams and as a stream splitter.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a xoshiro256** pseudo-random generator. The zero value is not
// usable; construct streams with NewStream or Stream.Split.
type Stream struct {
	s [4]uint64
}

// NewStream returns a stream seeded from seed via SplitMix64, per the
// xoshiro authors' recommendation. Distinct seeds yield streams that are
// statistically independent for simulation purposes.
func NewStream(seed uint64) *Stream {
	st := &Stream{}
	st.seed(seed)
	return st
}

// seed sets the state from seed; it is the one seeding routine behind
// NewStream, Split and SplitInto.
func (st *Stream) seed(seed uint64) {
	sm := seed
	for i := range st.s {
		st.s[i] = splitMix64(&sm)
	}
	// A xoshiro state of all zeros is invalid (the generator would be stuck
	// at zero forever); SplitMix64 cannot produce four zero outputs in a row,
	// but guard anyway so the invariant is local.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives a new, independent stream from the current one. The parent
// stream advances by one draw.
func (st *Stream) Split() *Stream {
	child := &Stream{}
	st.SplitInto(child)
	return child
}

// SplitInto is Split without the allocation: it overwrites dst with the
// stream Split would return, so a simulator can keep its streams in one
// reused slab of values.
func (st *Stream) SplitInto(dst *Stream) { dst.seed(st.Uint64()) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (st *Stream) Uint64() uint64 {
	s := &st.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (st *Stream) Float64() float64 {
	return float64(st.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform variate in the open interval (0, 1),
// suitable for inverse-transform sampling of distributions whose transform
// is singular at 0 or 1 (e.g. the exponential).
func (st *Stream) Float64Open() float64 {
	for {
		u := st.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (st *Stream) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n=%d", n))
	}
	// Lemire's multiply-shift rejection method: unbiased and division-free
	// in the common case.
	bound := uint64(n)
	x := st.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = st.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo = t & mask32
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask32
	hiPart := t >> 32
	t = aLo*bHi + mid
	hi = aHi*bHi + hiPart + t>>32
	lo |= t << 32
	return hi, lo
}

// Exp returns an exponential variate with the given mean. It panics if
// mean is not positive and finite, because a non-positive mean is always a
// configuration error in the simulator.
func (st *Stream) Exp(mean float64) float64 {
	if !(mean > 0) || math.IsInf(mean, 1) {
		panic(fmt.Sprintf("rng: Exp called with mean=%v", mean))
	}
	return -mean * math.Log(st.Float64Open())
}

// ExpRate returns an exponential variate with the given rate (1/mean).
func (st *Stream) ExpRate(rate float64) float64 {
	if !(rate > 0) {
		panic(fmt.Sprintf("rng: ExpRate called with rate=%v", rate))
	}
	return -math.Log(st.Float64Open()) / rate
}

// Normal returns a standard normal variate (Box-Muller; one of the pair
// is discarded to keep the stream's consumption rate deterministic at two
// uniforms per call).
func (st *Stream) Normal() float64 {
	u := st.Float64Open()
	v := st.Float64Open()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// Erlang returns an Erlang-k variate with the given total mean (the sum of
// k exponential phases each with mean mean/k). k must be >= 1.
func (st *Stream) Erlang(k int, mean float64) float64 {
	if k < 1 {
		panic(fmt.Sprintf("rng: Erlang called with k=%d", k))
	}
	phase := mean / float64(k)
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += st.Exp(phase)
	}
	return sum
}

// HyperExp2 returns a two-phase hyper-exponential variate: with probability
// p the mean is mean1, otherwise mean2. Useful for high-variance service
// time ablations.
func (st *Stream) HyperExp2(p, mean1, mean2 float64) float64 {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("rng: HyperExp2 called with p=%v", p))
	}
	if st.Float64() < p {
		return st.Exp(mean1)
	}
	return st.Exp(mean2)
}

// Uniform returns a uniform variate in [lo, hi).
func (st *Stream) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("rng: Uniform called with lo=%v > hi=%v", lo, hi))
	}
	return lo + (hi-lo)*st.Float64()
}

// Perm fills a permutation of [0, n) using the Fisher-Yates shuffle.
func (st *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := st.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
