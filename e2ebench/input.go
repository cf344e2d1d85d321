package main

import "math/rand"

// All inputs are generated here from the --seed flag, so the same seed
// gives the same streams whatever the library does with them.

// splitmix64 is the input generator's PRNG.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uniformStream returns n values drawn uniformly from [0, 2^bits) in
// random order.
func uniformStream(seed uint64, n, bits int) []uint64 {
	r := splitmix64{seed}
	xs := make([]uint64, n)
	mask := uint64(1)<<bits - 1
	for i := range xs {
		xs[i] = r.next() & mask
	}
	return xs
}

// zipfStream returns n values from a Zipf(s) law over [0, 2^bits):
// value v has probability proportional to (1+v)^-s.
func zipfStream(seed uint64, n, bits int, s float64) []uint64 {
	z := rand.NewZipf(rand.New(rand.NewSource(int64(seed))), s, 1, uint64(1)<<bits-1)
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = z.Uint64()
	}
	return xs
}

// churnBits is the churn workload's universe, 2^20 values.
const churnBits = 20

// churnJitter bounds how far out of order a churn value arrives.
const churnJitter = 4096

// churnValue is the i-th value of the churn stream: a slowly drifting
// position (one step every 8 elements, wrapping in the universe) plus a
// bounded random delay, the arrival pattern of timestamps from many
// sources. The stream is a pure function of (seed, i), so the end-of-run
// barrier can rebuild any window of it.
func churnValue(seed, i uint64) uint64 {
	jitter := mix64(seed*0x9e3779b97f4a7c15+i) % churnJitter
	return (i/8 + jitter) & (1<<churnBits - 1)
}

// churnWindow returns churn values [from, to).
func churnWindow(seed uint64, from, to int64) []uint64 {
	xs := make([]uint64, 0, to-from)
	for i := from; i < to; i++ {
		xs = append(xs, churnValue(seed, uint64(i)))
	}
	return xs
}
