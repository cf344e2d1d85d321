package streamquantiles

import (
	"sort"
	"testing"
)

func TestGKBiasedPublicAPI(t *testing.T) {
	b := NewGKBiased(0.05)
	data := make([]uint64, 100000)
	state := uint64(3)
	for i := range data {
		state = state*6364136223846793005 + 1442695040888963407
		data[i] = state >> 40
		b.Update(data[i])
	}
	sorted := append([]uint64{}, data...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	// Relative error: at φ the reported element's rank is within ε·φn.
	for _, phi := range []float64{0.001, 0.01, 0.1, 0.5} {
		got := b.Quantile(phi)
		rank := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= got })
		target := phi * float64(len(data))
		err := float64(rank) - target
		if err < 0 {
			err = -err
		}
		if err > 0.05*target+2 {
			t.Errorf("phi=%v: rank error %v exceeds ε·φn = %v", phi, err, 0.05*target)
		}
	}
}
