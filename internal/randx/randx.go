// Package randx provides the deterministic random-variate machinery the
// simulation packages share: a counter-based splitmix64 stream that can be
// keyed on (seed, entity, tick) tuples — so concurrent per-entity draws are
// independent of scheduling and worker count — and the Poisson, binomial,
// Beta and Gamma samplers that previously existed as per-package copies in
// webcorpus and usersim.
//
// The samplers take a *Stream, so every draw is a direct call the compiler
// can inline: a type parameter would not do, because gc compiles one body
// for all pointer type arguments and reaches Uint64 through a dictionary.
// usersim, which draws from a seeded *rand.Rand, keeps its own Poisson.
package randx

import (
	"math"
	"math/bits"
)

// Stream is a splitmix64 counter-based generator. Unlike a shared
// *rand.Rand, a Stream is a value: constructing one per (entity, tick) key
// gives every simulation entity its own reproducible random sequence whose
// draws do not depend on how work is scheduled across workers — the
// property the corpus tick kernel needs for bitwise worker-count
// invariance.
type Stream struct {
	state uint64
}

// golden is the splitmix64 increment (2^64/φ, odd); golden2 and golden3
// are its second and third multiples modulo 2^64, used to give each key
// component of NewStream its own offset.
const (
	golden  = 0x9E3779B97F4A7C15
	golden2 = 0x3C6EF372FE94F82A
	golden3 = 0xDAA66D2C7DDF743F
)

// mix64 is the splitmix64 output finalizer: an invertible avalanche over
// all 64 bits, so consecutive counter values produce decorrelated outputs.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Key folds a string into a 64-bit stream key with FNV-1a, so entities
// identified by name (URLs, request paths) can seed NewStream the same
// way integer-identified entities do.
func Key(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// NewStream returns the stream identified by (seed, key, tick). Each
// component passes through its own finalizer round before being folded in,
// so neighbouring keys or ticks (page 7/tick 8 vs page 8/tick 7) land in
// unrelated regions of the counter space.
func NewStream(seed int64, key, tick uint64) Stream {
	s := mix64(uint64(seed) + golden)
	s = mix64(s ^ mix64(key+golden2))
	s = mix64(s ^ mix64(tick+golden3))
	return Stream{state: s}
}

// Uint64 returns the next 64 random bits.
func (s *Stream) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// Float64 returns a uniform variate in [0,1) with 53 random bits.
func Float64(src *Stream) float64 {
	return float64(float64(src.Uint64()>>11) * 0x1p-53)
}

// Intn returns a uniform variate in [0,n). It panics if n <= 0, matching
// math/rand.
func Intn(src *Stream, n int) int {
	if n <= 0 {
		panic("randx: Intn with n <= 0")
	}
	return int(uint64n(src, uint64(n)))
}

// uint64n returns a bias-free uniform variate in [0,n) using Lemire's
// multiply-shift method with rejection of the short low interval.
func uint64n(src *Stream, n uint64) uint64 {
	hi, lo := bits.Mul64(src.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(src.Uint64(), n)
		}
	}
	return hi
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method. One variate of each accepted pair is returned and the other
// discarded: the samplers draw normals rarely (only above the
// approximation cutoffs), and statelessness keeps Stream a pure counter.
func NormFloat64(src *Stream) float64 {
	for {
		u := float64(2*Float64(src)) - 1
		v := float64(2*Float64(src)) - 1
		q := float64(u*u) + float64(v*v)
		if q == 0 || q >= 1 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(q)/q)
	}
}

// poissonNormalCutoff is the λ above which Poisson switches from Knuth's
// exact product method (cost O(λ)) to the normal approximation; at λ = 30
// the skewness 1/√λ is already below 0.19. Validated by the moment tests
// on both sides of the cutoff.
const poissonNormalCutoff = 30

// MaxMean bounds the mean a caller may ask of Poisson, and with it every
// count a sampler returns: a count up to it fits an int on every platform
// the module builds for, 32-bit ones included. Configurations whose
// per-tick means could pass it are refused where they are filled.
const MaxMean = math.MaxInt32

// Poisson returns a Poisson(lambda) variate: Knuth's product method for
// small lambda, normal approximation (rounded, clamped to [0, MaxMean])
// for large.
func Poisson(src *Stream, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < poissonNormalCutoff {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= Float64(src)
			if p <= l {
				return k
			}
			k++
		}
	}
	return count(lambda+float64(math.Sqrt(lambda)*NormFloat64(src)), MaxMean)
}

// count rounds a normal-approximation draw to an int in [0, hi]. The
// bounds are applied to the float, because converting a float beyond the
// int range to an int is implementation-defined; NaN counts as 0.
func count(v float64, hi int) int {
	if !(v > 0) {
		return 0
	}
	if v >= float64(hi) {
		return hi
	}
	return int(math.Round(v))
}

// binomialExactMax is the largest trial count for which Binomial runs the
// exact Bernoulli loop; beyond it the normal approximation (clamped to
// [0,n]) takes over. Validated by the moment tests on both sides.
const binomialExactMax = 50

// Binomial returns a Binomial(n, p) variate: exact Bernoulli loop for
// small n, normal approximation for large n.
func Binomial(src *Stream, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n < binomialExactMax {
		k := 0
		for i := 0; i < n; i++ {
			if Float64(src) < p {
				k++
			}
		}
		return k
	}
	mean := float64(float64(n) * p)
	sd := math.Sqrt(mean * (1 - p))
	return count(mean+float64(sd*NormFloat64(src)), n)
}

// Gamma returns a Gamma(shape, 1) variate with the Marsaglia–Tsang method
// (boosted for shape < 1).
func Gamma(src *Stream, shape float64) float64 {
	if shape < 1 {
		u := Float64(src)
		for u == 0 {
			u = Float64(src)
		}
		return Gamma(src, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := NormFloat64(src)
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := Float64(src)
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}

// Beta returns a Beta(a, b) variate via two Gamma variates.
func Beta(src *Stream, a, b float64) float64 {
	x := Gamma(src, a)
	y := Gamma(src, b)
	return x / (x + y)
}
