package spectral

import (
	"math"
	"math/rand"
)

// Per-mode random streams by jump-ahead. Every in-band mode of a random
// initial condition draws a few values from its own math/rand stream,
// rand.New(rand.NewSource(key)); that stream is the definition of the
// initial condition. Building the source seeds a 607-word state with
// ≈ 1,880 sequential Lehmer steps to produce six values, so seededDraws
// evaluates those first values directly instead.
//
// math/rand's source (rng.go) seeds with x₀ = seed mod (2³¹−1) (0 maps
// to 89482311) and the Lehmer recurrence xₖ = 48271·xₖ₋₁ mod (2³¹−1),
// so xₖ = 48271ᵏ·x₀ mod (2³¹−1). State word i is
//
//	vec[i] = x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ cooked[i]
//
// for a fixed table cooked. Output d is vec[333−d] + vec[606−d] (with
// the sum written back to vec[333−d]); for d < 273 neither word has
// been written back yet, so the first outputs depend on the original
// words alone. Int63 masks the top bit and Float64 divides by 2⁶³,
// resampling when that rounds to 1.
//
// The cooked words are recovered from math/rand's own raw outputs oₖ
// of a reference seed: output 334+d reads the word 606−d and the
// write-back of output 61+d, so vec[606−d] = o₃₃₄₊d − o₆₁₊d and then
// vec[333−d] = o_d − vec[606−d]; XOR with the reference seed's Lehmer
// part leaves cooked. The arithmetic is math/rand's own, so the draws
// are bit for bit its draws (TestSeededDrawsMatchMathRand,
// FuzzSeededDraws).

const (
	lehmerA   = 48271
	lehmerM   = 1<<31 - 1
	jumpDraws = 6 // the draws rawModeIC takes
)

// jumpWord is one original state word of the source: the powers of
// lehmerA that give its three Lehmer states from x₀, and its cooked word.
type jumpWord struct {
	pow    [3]uint64
	cooked int64
}

// jumpTable[d] holds the two words output d sums, vec[333−d] and
// vec[606−d].
var jumpTable = newJumpTable()

func newJumpTable() (t [jumpDraws][2]jumpWord) {
	const refSeed = 1
	src := rand.NewSource(refSeed).(rand.Source64)
	var o [334 + jumpDraws]int64
	for k := range o {
		o[k] = int64(src.Uint64())
	}
	x0 := lehmerSeed(refSeed)
	for d := range t {
		hi := o[334+d] - o[61+d]       // vec[606−d]
		vec := [2]int64{o[d] - hi, hi} // vec[333−d], vec[606−d]
		for j, i := range [2]int{333 - d, 606 - d} {
			w := &t[d][j]
			for l := range w.pow {
				w.pow[l] = lehmerPow(21 + 3*i + l)
			}
			w.cooked = vec[j] ^ w.lehmer(x0)
		}
	}
	return t
}

// lehmerPow returns lehmerA^k mod lehmerM.
func lehmerPow(k int) uint64 {
	p, b := uint64(1), uint64(lehmerA)
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			p = p * b % lehmerM
		}
		b = b * b % lehmerM
	}
	return p
}

// lehmerSeed reduces a seed to x₀ as math/rand's source does.
func lehmerSeed(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// lehmer returns the word's Lehmer part for x₀: its three states
// shifted and XORed as the source packs them. Both factors are below
// 2³¹, so each product is exact in 64 bits.
func (w *jumpWord) lehmer(x0 uint64) int64 {
	return int64(w.pow[0]*x0%lehmerM)<<40 ^ int64(w.pow[1]*x0%lehmerM)<<20 ^ int64(w.pow[2]*x0%lehmerM)
}

// seededDraws stores in dst the first len(dst) values of
// rand.New(rand.NewSource(seed)).Float64(). Up to jumpDraws values come
// from the jump-ahead table; longer requests, and a stream whose
// Float64 would resample, are drawn from math/rand itself.
func seededDraws(seed int64, dst []float64) {
	if len(dst) <= jumpDraws {
		x0 := lehmerSeed(seed)
		d := 0
		for ; d < len(dst); d++ {
			w := &jumpTable[d]
			o := (w[0].lehmer(x0) ^ w[0].cooked) + (w[1].lehmer(x0) ^ w[1].cooked)
			f := float64(o&math.MaxInt64) / (1 << 63)
			if f == 1 {
				break // Float64 resamples here, shifting every later draw
			}
			dst[d] = f
		}
		if d == len(dst) {
			return
		}
	}
	//psdns:allow hotalloc past the jump-ahead window only: requests longer than rawModeIC's, or a 2⁻⁵⁴-rare resample
	r := rand.New(rand.NewSource(seed))
	for d := range dst {
		dst[d] = r.Float64()
	}
}
