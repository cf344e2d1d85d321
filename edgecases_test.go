package streamquantiles

import (
	"testing"
)

// Edge-of-domain behaviors that production users hit first.

func TestTinyUniverse(t *testing.T) {
	// bits = 1: the universe is {0, 1}.
	q := NewQDigest(0.1, 1)
	d := NewDCS(0.1, 1, DyadicConfig{Seed: 1})
	for i := 0; i < 1000; i++ {
		v := uint64(i % 2)
		q.Update(v)
		d.Insert(v)
	}
	if med := q.Quantile(0.5); med > 1 {
		t.Errorf("q-digest median %d outside universe", med)
	}
	if med := d.Quantile(0.5); med > 1 {
		t.Errorf("DCS median %d outside universe", med)
	}
	if got := d.Rank(1); got < 400 || got > 600 {
		t.Errorf("DCS Rank(1) = %d, want ≈ 500", got)
	}
}

func TestCoarseEps(t *testing.T) {
	// ε = 0.4: a legal but extreme setting; summaries stay tiny and
	// answers stay within the (huge) tolerance.
	for name, s := range map[string]CashRegister{
		"GKArray": NewGKArray(0.4),
		"Random":  NewRandom(0.4, 1),
		"MRL99":   NewMRL99(0.4, 1),
	} {
		for i := uint64(0); i < 10000; i++ {
			s.Update(i)
		}
		med := s.Quantile(0.5)
		if med > 10000 {
			t.Errorf("%s: median %d outside observed range", name, med)
		}
	}
}

func TestExtremePhis(t *testing.T) {
	s := NewGKArray(0.001)
	for i := uint64(1); i <= 100000; i++ {
		s.Update(i)
	}
	if q := s.Quantile(0.00001); q > 200 {
		t.Errorf("phi→0 quantile = %d, want near minimum", q)
	}
	if q := s.Quantile(0.99999); q < 99800 {
		t.Errorf("phi→1 quantile = %d, want near maximum", q)
	}
}

func TestMaxUniverseValue(t *testing.T) {
	// The largest representable element must round-trip through the
	// comparison-based summaries.
	s := NewGKArray(0.1)
	max := ^uint64(0)
	for i := 0; i < 100; i++ {
		s.Update(max)
		s.Update(0)
	}
	if q := s.Quantile(0.99); q != max {
		t.Errorf("0.99-quantile = %d, want max uint64", q)
	}
	if q := s.Quantile(0.01); q != 0 {
		t.Errorf("0.01-quantile = %d, want 0", q)
	}
}

func TestAlternatingInsertDeleteChurn(t *testing.T) {
	// Sustained churn: the turnstile summary must stay consistent when
	// the live set is repeatedly rebuilt.
	s := NewDCS(0.05, 12, DyadicConfig{Seed: 2})
	for round := 0; round < 20; round++ {
		for i := uint64(0); i < 2000; i++ {
			s.Insert(i % 4096)
		}
		for i := uint64(0); i < 2000; i++ {
			s.Delete(i % 4096)
		}
	}
	if s.Count() != 0 {
		t.Fatalf("count %d after balanced churn", s.Count())
	}
	for i := uint64(100); i < 200; i++ {
		s.Insert(i)
	}
	med := s.Quantile(0.5)
	if med < 100 || med >= 200 {
		t.Errorf("median %d outside the only live range [100,200)", med)
	}
}
