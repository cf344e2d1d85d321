package streamquantiles

import "testing"

func TestDRSSPublicAPI(t *testing.T) {
	// DRSS exists for completeness; it must satisfy the same interface
	// and stay within a loose error bound (the paper excludes it from
	// headline plots for being dominated, not broken).
	s := NewDRSS(0.05, 12, DyadicConfig{Seed: 1})
	for i := 0; i < 30000; i++ {
		s.Insert(uint64(i % 4096))
	}
	if s.Count() != 30000 {
		t.Fatalf("count %d", s.Count())
	}
	med := s.Quantile(0.5)
	if med < 1500 || med > 2600 {
		t.Errorf("DRSS median %d, want ≈ 2048 (loose)", med)
	}
	for i := 0; i < 30000; i++ {
		s.Delete(uint64(i % 4096))
	}
	if s.Count() != 0 {
		t.Errorf("count %d after deleting all", s.Count())
	}
}
