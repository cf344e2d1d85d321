package harness

import "testing"

func TestExtBiasedShape(t *testing.T) {
	results := ExtBiased(Options{N: 50000, Seed: 21, Repeats: 1})
	rel := map[string]map[float64]float64{}
	for _, r := range results {
		if rel[r.Algo] == nil {
			rel[r.Algo] = map[float64]float64{}
		}
		rel[r.Algo][r.Phi] = r.AvgErr // error relative to target rank
	}
	// The biased summary's relative error must stay bounded at low φ…
	for phi, e := range rel["GKBiased"] {
		if e > 0.2 {
			t.Errorf("GKBiased err/phi at phi=%g is %v; relative guarantee broken", phi, e)
		}
	}
	// …and must beat the uniform summary at the lowest φ measured.
	lowest := 1.0
	for phi := range rel["GKBiased"] {
		if phi < lowest {
			lowest = phi
		}
	}
	if rel["GKBiased"][lowest] >= rel["GKArray"][lowest] && rel["GKArray"][lowest] > 0 {
		t.Errorf("at phi=%g biased (%v) not sharper than uniform (%v)",
			lowest, rel["GKBiased"][lowest], rel["GKArray"][lowest])
	}
}
