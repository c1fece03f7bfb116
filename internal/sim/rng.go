package sim

// RNG is a small, fast, deterministic pseudo-random generator (SplitMix64)
// used by workload generators and property tests. It is independent of
// math/rand so that simulated experiments never change when the Go
// standard library reshuffles its generators.
type RNG struct{ state uint64 }

// NewRNG seeds a generator. Equal seeds yield equal streams forever.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi]. It panics if hi < lo.
func (r *RNG) Range(lo, hi int) int {
	if hi < lo {
		panic("sim: Range with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bytes fills b with pseudo-random bytes.
func (r *RNG) Bytes(b []byte) {
	var w uint64
	for i := range b {
		if i%8 == 0 {
			w = r.Uint64()
		}
		b[i] = byte(w >> (8 * (i % 8)))
	}
}
