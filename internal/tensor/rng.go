package tensor

import "math"

// RNG is a small, deterministic pseudo-random generator (splitmix64 core)
// used wherever the paper's algorithms need randomness: TernGrad's stochastic
// rounding, DGC's sampling, and synthetic gradient/dataset generation. A
// hand-rolled generator keeps experiment output byte-identical across Go
// releases, which math/rand does not guarantee.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed + 0x9e3779b97f4a7c15}
}

// RNGState is the full serializable state of an RNG. The splitmix64 core
// keeps its entire state in one 64-bit word, so a state capture is exact:
// restoring it resumes the stream at precisely the next draw. Checkpoint
// files persist these (see internal/ckpt) to make kill/resume training
// bit-identical to the uninterrupted run.
type RNGState uint64

// Save captures the generator's current state. The returned value is
// self-contained: it can be persisted and fed to Restore (on this or any
// other RNG) to continue the identical stream.
func (r *RNG) Save() RNGState { return RNGState(r.state) }

// Restore rewinds (or fast-forwards) the generator to a previously saved
// state. After Restore, the draw sequence is bit-identical to what the
// saving generator would have produced next.
func (r *RNG) Restore(s RNGState) { r.state = uint64(s) }

// rngGamma is the splitmix64 Weyl increment: the state advances by exactly
// this constant per draw, which is what makes the stream randomly
// addressable (see Uint64At).
const rngGamma = 0x9e3779b97f4a7c15

// rngFinalize is the splitmix64 output mix applied to a state word.
func rngFinalize(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += rngGamma
	return rngFinalize(r.state)
}

// Uint64At returns draw i (0-indexed) of the stream continuing from saved
// state s, without touching any generator. Because splitmix64's state is a
// Weyl sequence (state += gamma per draw), draw i is a pure function of
// (s, i): this is what lets the parallel TernGrad kernel give every chunk
// O(1) random access to its slice of the stream while staying bit-identical
// to the sequential generator.
func Uint64At(s RNGState, i uint64) uint64 {
	return rngFinalize(uint64(s) + (i+1)*rngGamma)
}

// Float64At returns Float64 draw i of the stream continuing from state s.
// Float64At(r.Save(), i) == the (i+1)-th r.Float64() call, bit for bit.
func Float64At(s RNGState, i uint64) float64 {
	return float64(Uint64At(s, i)>>11) / (1 << 53)
}

// Skip advances the generator past n draws in O(1), as if Uint64 had been
// called n times. Used by parallel kernels that consumed n draws through
// Uint64At to leave the generator in the exact state a sequential
// implementation would.
func (r *RNG) Skip(n uint64) { r.state += n * rngGamma }

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("tensor: Uint64n(0)")
	}
	// Rejection sampling to avoid modulo bias.
	limit := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v < limit {
			return v % n
		}
	}
}

// Intn returns a uniform int in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	// Draw u1 in (0,1] to keep the log finite.
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// FillNormal fills v with N(0, sigma^2) samples.
func (r *RNG) FillNormal(v []float32, sigma float64) {
	for i := range v {
		v[i] = float32(r.NormFloat64() * sigma)
	}
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
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
