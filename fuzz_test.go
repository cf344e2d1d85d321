package streamquantiles

import (
	"bytes"
	"slices"
	"testing"

	"streamquantiles/internal/invariant"
)

// Fuzz targets double as regression tests: `go test` runs the seed
// corpus; `go test -fuzz=FuzzX` explores further.

// FuzzGKArrayGuarantee drives GKArray with arbitrary bytes as a stream
// and checks the deterministic ε guarantee against a sorted copy.
func FuzzGKArrayGuarantee(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 250, 0, 0, 9})
	f.Add(bytes.Repeat([]byte{7}, 300))
	f.Add([]byte{255, 254, 253, 252, 251, 250})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		const eps = 0.1
		s := NewGKArray(eps)
		ck := invariant.Every(16) // deep sanitizer, active under -tags sqcheck
		data := make([]uint64, len(raw))
		for i, b := range raw {
			data[i] = uint64(b)
			s.Update(data[i])
			if err := ck.Check(s); err != nil {
				t.Fatalf("after %d updates: %v", i+1, err)
			}
		}
		if err := invariant.Check(s); err != nil {
			t.Fatal(err)
		}
		slices.Sort(data)
		n := len(data)
		for _, phi := range []float64{0.25, 0.5, 0.75} {
			got := s.Quantile(phi)
			lo, _ := slices.BinarySearch(data, got)
			hi, _ := slices.BinarySearch(data, got+1)
			target := int(phi * float64(n))
			slack := int(eps*float64(n)) + 1
			if target < lo-slack || target > hi-1+slack {
				t.Fatalf("phi=%v: reported %d has rank [%d,%d], target %d ± %d",
					phi, got, lo, hi-1, target, slack)
			}
		}
	})
}

// FuzzTurnstileDeletes interleaves inserts and strict deletes and checks
// the count plus basic query sanity.
func FuzzTurnstileDeletes(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3})
	f.Add([]byte{9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		s := NewDCS(0.1, 8, DyadicConfig{Seed: 1})
		ck := invariant.Every(16) // deep sanitizer, active under -tags sqcheck
		live := map[uint64]int{}
		var n int64
		for i, b := range raw {
			x := uint64(b)
			if i%3 == 2 && live[x] > 0 {
				s.Delete(x)
				live[x]--
				n--
			} else {
				s.Insert(x)
				live[x]++
				n++
			}
			if err := ck.Check(s); err != nil {
				t.Fatalf("after %d operations: %v", i+1, err)
			}
		}
		if err := invariant.Check(s); err != nil {
			t.Fatal(err)
		}
		if s.Count() != n {
			t.Fatalf("count %d, want %d", s.Count(), n)
		}
		if n > 0 {
			q := s.Quantile(0.5)
			if q > 255 {
				t.Fatalf("median %d outside universe", q)
			}
		}
	})
}

// FuzzCodecsNeverPanic feeds arbitrary bytes to every UnmarshalBinary:
// corrupt input must produce an error, never a panic or a hang.
func FuzzCodecsNeverPanic(f *testing.F) {
	seed := func() [][]byte {
		var blobs [][]byte
		gk := NewGKArray(0.1)
		gk.Update(5)
		b1, _ := gk.MarshalBinary()
		qd := NewQDigest(0.1, 8)
		qd.Update(5)
		b2, _ := qd.MarshalBinary()
		r := NewRandom(0.1, 1)
		r.Update(5)
		b3, _ := r.MarshalBinary()
		d := NewDCS(0.1, 8, DyadicConfig{Seed: 1})
		d.Insert(5)
		b4, _ := d.MarshalBinary()
		blobs = append(blobs, b1, b2, b3, b4)
		return blobs
	}
	for _, b := range seed() {
		f.Add(b)
		if len(b) > 4 {
			f.Add(b[:len(b)/2]) // truncated variants
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var a GKArray
		_ = a.UnmarshalBinary(raw)
		var b GKAdaptive
		_ = b.UnmarshalBinary(raw)
		var c GKTheory
		_ = c.UnmarshalBinary(raw)
		var gb GKBiased
		_ = gb.UnmarshalBinary(raw)
		var q QDigest
		_ = q.UnmarshalBinary(raw)
		var r Random
		_ = r.UnmarshalBinary(raw)
		var m MRL99
		_ = m.UnmarshalBinary(raw)
		var d DyadicSketch
		_ = d.UnmarshalBinary(raw)
		var k KLL
		_ = k.UnmarshalBinary(raw)
	})
}

// FuzzFloatKeys checks the order-preserving bijection on arbitrary bit
// patterns.
func FuzzFloatKeys(f *testing.F) {
	f.Add(uint64(0), uint64(1))
	f.Add(uint64(1<<63), uint64(1<<63|1))
	f.Fuzz(func(t *testing.T, abits, bbits uint64) {
		a := KeyFloat64(Float64Key(KeyFloat64(abits)))
		_ = a
		av, bv := KeyFloat64(abits), KeyFloat64(bbits)
		if av != av || bv != bv { // NaN inputs: mapping undefined
			return
		}
		ka, kb := Float64Key(av), Float64Key(bv)
		switch {
		case av < bv:
			if ka >= kb {
				t.Fatalf("order broken: %v < %v but keys %d ≥ %d", av, bv, ka, kb)
			}
		case av > bv:
			if ka <= kb {
				t.Fatalf("order broken: %v > %v but keys %d ≤ %d", av, bv, ka, kb)
			}
		}
		if KeyFloat64(ka) != av && av != 0 {
			t.Fatalf("round trip broken for %v", av)
		}
	})
}
