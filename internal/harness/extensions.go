package harness

import (
	"time"

	"streamquantiles/internal/core"
	"streamquantiles/internal/gk"
	"streamquantiles/internal/kll"
	"streamquantiles/internal/streamgen"
)

// Extension experiments: problem variations the paper's introduction
// surveys (biased quantiles) and the KLL epilogue, beyond the paper's
// own evaluation.
const (
	ExpExtBiased = "ext-biased"
	ExpExtKLL    = "ext-kll"
)

// ExtBiased compares the biased summary against a uniform GK summary at
// the same ε across query fractions: the biased structure must be
// proportionally sharper at low φ for comparable space.
func ExtBiased(o Options) []Result {
	data, oracle := makeData(streamgen.Uniform{Bits: 24, Seed: o.Seed}, o.n())
	const eps = 0.05
	phis := []float64{0.0001, 0.001, 0.01, 0.1, 0.5}

	algos := []struct {
		name string
		s    core.CashRegister
	}{
		{"GKBiased", gk.NewBiased(eps)},
		{"GKArray", gk.NewArray(eps)},
	}

	var results []Result
	for _, a := range algos {
		start := time.Now()
		for _, x := range data {
			a.s.Update(x)
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(len(data))
		for _, phi := range phis {
			if phi*float64(o.n()) < 2 {
				continue
			}
			got := a.s.Quantile(phi)
			absErr := oracle.QuantileError(got, phi)
			results = append(results, Result{
				Experiment: ExpExtBiased, Algo: a.name, Workload: "uniform(u=2^24)",
				N: int64(o.n()), Eps: eps, Phi: phi,
				SpaceBytes: a.s.SpaceBytes(), UpdateNs: ns,
				MaxErr: absErr,       // absolute rank error / n
				AvgErr: absErr / phi, // error relative to the target rank
			})
		}
	}
	return results
}

// ExtKLL pits the KLL sketch against Random and MRL99 — the lineage the
// study's findings fed into — across the ε sweep on the headline
// workload.
func ExtKLL(o Options) []Result {
	data, oracle := makeData(streamgen.MPCATLike{Seed: o.Seed}, o.n())
	algos := []CashBuilder{
		CashAlgo("MRL99"),
		CashAlgo("Random"),
		{Name: "KLL", New: func(eps float64, _ int, seed uint64) core.CashRegister {
			return kll.New(eps, seed)
		}},
	}
	var results []Result
	for _, eps := range cashEpsSweep(o.n()) {
		for _, a := range algos {
			m := average(true, o.repeats(), o.Seed, func(seed uint64) measured {
				return runCash(a, eps, 24, seed, data, oracle)
			})
			results = append(results, Result{
				Experiment: ExpExtKLL, Algo: a.Name, Workload: "mpcat-like",
				N: int64(o.n()), Eps: eps, Bits: 24,
				SpaceBytes: m.space, UpdateNs: m.updateNs,
				MaxErr: m.maxErr, AvgErr: m.avgErr,
			})
		}
	}
	return results
}
