package streamquantiles_test

import (
	"fmt"

	sq "streamquantiles"
)

// The basic loop: build a summary, stream elements, extract quantiles.
func ExampleNewGKArray() {
	s := sq.NewGKArray(0.01) // deterministic ±1% rank error
	for i := uint64(1); i <= 100000; i++ {
		s.Update(i)
	}
	fmt.Println(s.Count())
	fmt.Println(s.Quantile(0.5) >= 49000 && s.Quantile(0.5) <= 51000)
	// Output:
	// 100000
	// true
}

// Randomized summaries take a seed; the same seed reproduces the same
// summary exactly.
func ExampleNewRandom() {
	a := sq.NewRandom(0.01, 7)
	b := sq.NewRandom(0.01, 7)
	for i := uint64(0); i < 50000; i++ {
		a.Update(i * 977 % 65536)
		b.Update(i * 977 % 65536)
	}
	fmt.Println(a.Quantile(0.9) == b.Quantile(0.9))
	// Output:
	// true
}

// Turnstile summaries handle deletions: summarize only what remains.
func ExampleNewDCS() {
	s := sq.NewDCS(0.01, 16, sq.DyadicConfig{Seed: 1})
	for i := uint64(0); i < 30000; i++ {
		s.Insert(i % 1000) // values 0..999
	}
	for i := uint64(0); i < 30000; i++ {
		if i%1000 >= 500 {
			s.Delete(i % 1000) // remove the top half
		}
	}
	fmt.Println(s.Count())
	fmt.Println(s.Quantile(0.99) < 520) // only 0..499 remain
	// Output:
	// 15000
	// true
}

// PostProcess sharpens a loaded DCS sketch at query time.
func ExamplePostProcess() {
	s := sq.NewDCS(0.01, 20, sq.DyadicConfig{Seed: 1})
	for i := uint64(0); i < 100000; i++ {
		s.Insert(i % 4096)
	}
	post := sq.PostProcess(s, 0) // 0 selects the paper's η = 0.1
	med := post.Quantile(0.5)
	fmt.Println(med >= 2000 && med <= 2100)
	// Output:
	// true
}

// Float64 data flows through the order-preserving key mapping.
func ExampleFloatCashRegister() {
	lat := sq.FloatCashRegister{S: sq.NewGKArray(0.005)}
	for i := 0; i < 10000; i++ {
		lat.Update(float64(i) / 100) // 0.00 … 99.99
	}
	p90 := lat.Quantile(0.9)
	fmt.Println(p90 >= 89 && p90 <= 91)
	// Output:
	// true
}

// q-digests merge: combine summaries computed on different shards.
func ExampleQDigest_Merge() {
	a := sq.NewQDigest(0.01, 16)
	b := sq.NewQDigest(0.01, 16)
	for i := uint64(0); i < 20000; i++ {
		a.Update(i % 30000 % 65536)
		b.Update((i + 20000) % 30000 % 65536)
	}
	a.Merge(b)
	fmt.Println(a.Count())
	// Output:
	// 40000
}

// KLL: the modern successor of the Random/MRL99 lineage, mergeable and
// small.
func ExampleNewKLL() {
	s := sq.NewKLL(0.01, 7)
	for i := uint64(0); i < 100000; i++ {
		s.Update(i % 10000)
	}
	med := s.Quantile(0.5)
	fmt.Println(med >= 4800 && med <= 5200)
	// Output:
	// true
}

// CDF extracts a whole distribution sketch in one call.
func ExampleCDF() {
	s := sq.NewGKArray(0.01)
	for i := uint64(0); i < 10000; i++ {
		s.Update(i)
	}
	pts := sq.CDF(s, 3) // quartiles
	fmt.Println(len(pts), pts[1].Fraction)
	// Output:
	// 3 0.5
}
