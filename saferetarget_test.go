package streamquantiles

import "testing"

// TestSafeTurnstileRetarget covers the three outcomes of retargeting a
// Safe turnstile wrapper: a merge-compatible sketch absorbs the live
// data; an incompatible one is refused while data is live, leaving the
// wrapper untouched; and a sketch whose insertions were all deleted
// again holds nothing, so it is replaced by the incompatible one
// outright and later answers come from new data only.
func TestSafeTurnstileRetarget(t *testing.T) {
	const eps, bits = 0.02, 12
	probes := []uint64{0, 100, 1000, 2000, 3000, 4095}
	ranks := func(s interface{ Rank(uint64) int64 }) []int64 {
		out := make([]int64, len(probes))
		for i, x := range probes {
			out[i] = s.Rank(x)
		}
		return out
	}
	sameRanks := func(t *testing.T, what string, got, want []int64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: Rank(%d) = %d, want %d", what, probes[i], got[i], want[i])
			}
		}
	}
	fill := func(s interface{ Insert(uint64) }, from, to uint64) {
		for x := from; x < to; x++ {
			s.Insert(x * 7 % 4096)
		}
	}

	t.Run("compatible", func(t *testing.T) {
		s := NewSafeTurnstile(NewDCS(eps, bits, DyadicConfig{Seed: 1}))
		fill(s, 0, 3000)
		n, before := s.Count(), ranks(s)
		if err := s.Retarget(NewDCS(eps, bits, DyadicConfig{Seed: 1})); err != nil {
			t.Fatalf("same-seed retarget: %v", err)
		}
		if got := s.Count(); got != n {
			t.Fatalf("count after retarget = %d, want %d", got, n)
		}
		sameRanks(t, "after retarget", ranks(s), before)
	})

	t.Run("incompatible with live data", func(t *testing.T) {
		s := NewSafeTurnstile(NewDCS(eps, bits, DyadicConfig{Seed: 1}))
		fill(s, 0, 3000)
		n, before := s.Count(), ranks(s)
		if err := s.Retarget(NewDCS(eps, bits, DyadicConfig{Seed: 2})); err == nil {
			t.Fatal("retarget onto a differently seeded sketch with live data did not error")
		}
		if got := s.Count(); got != n {
			t.Fatalf("count after refused retarget = %d, want %d", got, n)
		}
		sameRanks(t, "after refused retarget", ranks(s), before)
		// The original sketch still ingests: a delete cancels exactly.
		s.Insert(5)
		s.Delete(5)
		if got := s.Count(); got != n {
			t.Fatalf("count after insert/delete = %d, want %d", got, n)
		}
	})

	t.Run("drained to zero", func(t *testing.T) {
		s := NewSafeTurnstile(NewDCS(eps, bits, DyadicConfig{Seed: 1}))
		for x := uint64(0); x < 3000; x++ {
			s.Insert(x * 7 % 4096)
		}
		for x := uint64(0); x < 3000; x++ {
			s.Delete(x * 7 % 4096)
		}
		if got := s.Count(); got != 0 {
			t.Fatalf("count after deleting every insertion = %d, want 0", got)
		}
		if err := s.Retarget(NewDCS(eps, bits, DyadicConfig{Seed: 2})); err != nil {
			t.Fatalf("retarget of a drained sketch: %v", err)
		}
		want := NewDCS(eps, bits, DyadicConfig{Seed: 2})
		fill(s, 3000, 4000)
		fill(want, 3000, 4000)
		if got := s.Count(); got != want.Count() {
			t.Fatalf("count = %d, want %d from the new data only", got, want.Count())
		}
		sameRanks(t, "after drained retarget", ranks(s), ranks(want))
	})
}
