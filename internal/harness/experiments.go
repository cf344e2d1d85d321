package harness

import (
	"fmt"

	"streamquantiles/internal/dyadic"
	"streamquantiles/internal/exact"
	"streamquantiles/internal/ols"
	"streamquantiles/internal/streamgen"
)

// Experiment identifiers, one per paper table/figure plus the ablations.
const (
	ExpFig5      = "fig5"  // cash register: ε vs error, space, time (5a–5f)
	ExpFig6      = "fig6"  // q-digest vs universe size (6a–6b)
	ExpFig7      = "fig7"  // varying stream length (7a–7b)
	ExpFig8      = "fig8"  // random vs sorted order (8)
	ExpTable3    = "tab3"  // tuning d, average error
	ExpTable4    = "tab4"  // tuning d, maximum error
	ExpFig9      = "fig9"  // Post: η tradeoff
	ExpFig10     = "fig10" // turnstile: ε vs error, space, time (10a–10e)
	ExpFig11     = "fig11" // turnstile vs universe size (11a–11b)
	ExpFig12     = "fig12" // turnstile vs skewness (12a–12b)
	ExpAblGK     = "abl-gk"
	ExpAblExact  = "abl-exact"
	ExpAblPostFB = "abl-postfb"
)

// AllExperiments lists every driver in report order.
func AllExperiments() []string {
	return []string{
		ExpFig5, ExpFig6, ExpFig7, ExpFig8,
		ExpTable3, ExpTable4, ExpFig9, ExpFig10, ExpFig11, ExpFig12,
		ExpAblGK, ExpAblExact, ExpAblPostFB,
		ExpExtBiased, ExpExtKLL,
	}
}

// Run dispatches an experiment by identifier.
func Run(exp string, o Options) []Result {
	switch exp {
	case ExpFig5:
		return Fig5(o)
	case ExpFig6:
		return Fig6(o)
	case ExpFig7:
		return Fig7(o)
	case ExpFig8:
		return Fig8(o)
	case ExpTable3, ExpTable4:
		return Table3And4(o)
	case ExpFig9:
		return Fig9(o)
	case ExpFig10:
		return Fig10(o)
	case ExpFig11:
		return Fig11(o)
	case ExpFig12:
		return Fig12(o)
	case ExpAblGK:
		return AblationGKImpl(o)
	case ExpAblExact:
		return AblationExactLevels(o)
	case ExpAblPostFB:
		return AblationPostFallback(o)
	case ExpExtBiased:
		return ExtBiased(o)
	case ExpExtKLL:
		return ExtKLL(o)
	default:
		panic(fmt.Sprintf("harness: unknown experiment %q", exp))
	}
}

// cashEpsSweep is the ε grid of the cash-register experiments; the paper
// sweeps 10^-6…10^-2 at n up to 10^8, scaled here to stay meaningful at
// the default n (εn must remain ≫ 1).
func cashEpsSweep(n int) []float64 {
	sweep := []float64{0.05, 0.01, 0.002, 0.0005, 0.0001}
	var out []float64
	for _, e := range sweep {
		if e*float64(n) >= 10 {
			out = append(out, e)
		}
	}
	return out
}

// Fig5 measures every cash-register algorithm on the MPCAT-like workload
// across the ε sweep: the data behind Figures 5a–5f (ε vs actual errors,
// error–space, error–time, space–time).
func Fig5(o Options) []Result {
	data, oracle := makeData(streamgen.MPCATLike{Seed: o.Seed}, o.n())
	var results []Result
	for _, eps := range cashEpsSweep(o.n()) {
		for _, algo := range CashAlgos() {
			m := average(IsRandomized(algo.Name), o.repeats(), o.Seed,
				func(seed uint64) measured {
					return runCash(algo, eps, 24, seed, data, oracle)
				})
			results = append(results, Result{
				Experiment: ExpFig5, Algo: algo.Name, Workload: "mpcat-like",
				N: int64(o.n()), Eps: eps, Bits: 24,
				SpaceBytes: m.space, UpdateNs: m.updateNs,
				MaxErr: m.maxErr, AvgErr: m.avgErr,
			})
		}
	}
	return results
}

// Fig6 varies the universe size on normally distributed data and pits
// FastQDigest against the best deterministic and randomized
// comparison-based algorithms (which are unaffected by u): Figures 6a–6b.
func Fig6(o Options) []Result {
	var results []Result
	for _, bits := range []int{16, 24, 32} {
		data, oracle := makeData(streamgen.Normal{Bits: bits, Sigma: 0.15, Seed: o.Seed}, o.n())
		for _, name := range []string{"FastQDigest", "GKAdaptive", "Random"} {
			algo := CashAlgo(name)
			for _, eps := range []float64{0.01, 0.001} {
				if eps*float64(o.n()) < 10 {
					continue
				}
				m := average(IsRandomized(name), o.repeats(), o.Seed,
					func(seed uint64) measured {
						return runCash(algo, eps, bits, seed, data, oracle)
					})
				results = append(results, Result{
					Experiment: ExpFig6, Algo: name,
					Workload: fmt.Sprintf("normal(σ=0.15,u=2^%d)", bits),
					N:        int64(o.n()), Eps: eps, Bits: bits,
					SpaceBytes: m.space, UpdateNs: m.updateNs,
					MaxErr: m.maxErr, AvgErr: m.avgErr,
				})
			}
		}
	}
	return results
}

// Fig7 varies the stream length on uniform data with u = 2^32 and a
// fixed ε, recording time and space: Figures 7a–7b. The paper sweeps
// 10^7–10^10; the sweep here is o.n()/16 … o.n() (same decade span at
// laptop scale).
func Fig7(o Options) []Result {
	var results []Result
	eps := 0.001
	for eps*float64(o.n())/16 < 10 && eps < 0.2 {
		eps *= 5 // keep εn meaningful at small test scales
	}
	for _, n := range []int{o.n() / 16, o.n() / 4, o.n()} {
		if n < 64 {
			continue
		}
		data, oracle := makeData(streamgen.Uniform{Bits: 32, Seed: o.Seed}, n)
		for _, algo := range CashAlgos() {
			m := average(IsRandomized(algo.Name), o.repeats(), o.Seed,
				func(seed uint64) measured {
					return runCash(algo, eps, 32, seed, data, oracle)
				})
			results = append(results, Result{
				Experiment: ExpFig7, Algo: algo.Name, Workload: "uniform(u=2^32)",
				N: int64(n), Eps: eps, Bits: 32,
				SpaceBytes: m.space, UpdateNs: m.updateNs,
				MaxErr: m.maxErr, AvgErr: m.avgErr,
			})
		}
	}
	return results
}

// Fig8 compares random against sorted arrival order on uniform data:
// Figure 8. Sorted order is the adversarial case for the GK family.
func Fig8(o Options) []Result {
	var results []Result
	gens := []streamgen.Generator{
		streamgen.Uniform{Bits: 32, Seed: o.Seed},
		streamgen.Sorted{Inner: streamgen.Uniform{Bits: 32, Seed: o.Seed}},
	}
	orders := []string{"random", "sorted"}
	eps := 0.001
	if eps*float64(o.n()) < 10 {
		eps = 0.01
	}
	for gi, g := range gens {
		data, oracle := makeData(g, o.n())
		for _, algo := range CashAlgos() {
			m := average(IsRandomized(algo.Name), o.repeats(), o.Seed,
				func(seed uint64) measured {
					return runCash(algo, eps, 32, seed, data, oracle)
				})
			results = append(results, Result{
				Experiment: ExpFig8, Algo: algo.Name, Workload: orders[gi],
				N: int64(o.n()), Eps: eps, Bits: 32,
				SpaceBytes: m.space, UpdateNs: m.updateNs,
				MaxErr: m.maxErr, AvgErr: m.avgErr,
			})
		}
	}
	return results
}

// Table3And4 tunes the Count-Sketch depth d for DCS on uniform data with
// u = 2^32, reporting average (Table 3) and maximum (Table 4) errors for
// each (per-level sketch size, d) cell.
func Table3And4(o Options) []Result {
	data, oracle := makeData(streamgen.Uniform{Bits: 32, Seed: o.Seed}, o.n())
	var results []Result
	for _, kb := range []int{64, 128, 256, 512, 1024} {
		counters := kb * 1024 / 4 // 4-byte counters per level
		for _, d := range []int{3, 5, 7, 9, 11, 13} {
			w := counters / d
			if w < 1 {
				continue
			}
			m := average(true, o.repeats(), o.Seed, func(seed uint64) measured {
				cfg := dyadic.Config{Width: w, Depth: d, Seed: seed}
				return runTurn(TurnBuilder{Name: "DCS", Kind: dyadic.DCS}, 0.001, 32, cfg, data, oracle)
			})
			results = append(results, Result{
				Experiment: ExpTable3, Algo: "DCS", Workload: "uniform(u=2^32)",
				N: int64(o.n()), Bits: 32, D: d, SketchKB: kb,
				SpaceBytes: m.space, UpdateNs: m.updateNs,
				MaxErr: m.maxErr, AvgErr: m.avgErr,
			})
		}
	}
	return results
}

// Fig9 sweeps the truncation factor η of the post-processing for several
// ε, reporting the tree size relative to the DCS sketch and the error
// relative to raw DCS: Figure 9.
func Fig9(o Options) []Result {
	data, oracle := makeData(streamgen.MPCATLike{Seed: o.Seed}, o.n())
	var results []Result
	for _, eps := range []float64{0.1, 0.01, 0.001} {
		if eps*float64(o.n()) < 10 {
			continue
		}
		for _, eta := range []float64{1, 0.5, 0.2, 0.1, 0.05, 0.02} {
			var treeRel, errRel, postAvg float64
			reps := o.repeats()
			for r := 0; r < reps; r++ {
				seed := o.Seed + uint64(r)*7919
				s := dyadic.New(dyadic.DCS, eps, 24, dyadic.Config{Seed: seed})
				for _, x := range data {
					s.Insert(x)
				}
				_, rawAvg := oracle.EvaluateSummary(s, eps)
				p := ols.Process(s, eta)
				_, pAvg := oracle.EvaluateSummary(p, eps)
				counters := float64(s.SpaceBytes()) / 4
				treeRel += float64(p.TreeNodes()) / counters
				if rawAvg > 0 {
					errRel += pAvg / rawAvg
				} else {
					errRel += 1
				}
				postAvg += pAvg
			}
			results = append(results, Result{
				Experiment: ExpFig9, Algo: "Post", Workload: "mpcat-like",
				N: int64(o.n()), Eps: eps, Bits: 24, Eta: eta,
				AvgErr:  postAvg / float64(reps),
				TreeRel: treeRel / float64(reps),
				ErrRel:  errRel / float64(reps),
			})
		}
	}
	return results
}

// turnEpsSweep is the ε grid of the turnstile experiments.
func turnEpsSweep(n int) []float64 {
	sweep := []float64{0.05, 0.01, 0.002}
	var out []float64
	for _, e := range sweep {
		if e*float64(n) >= 10 {
			out = append(out, e)
		}
	}
	return out
}

// Fig10 measures DCM, DCS and Post on the MPCAT-like workload across the
// ε sweep: the data behind Figures 10a–10e.
func Fig10(o Options) []Result {
	data, oracle := makeData(streamgen.MPCATLike{Seed: o.Seed}, o.n())
	return turnSweep(ExpFig10, "mpcat-like", 24, data, oracle, o)
}

// Fig11 varies the universe size on normal data (σ = 0.15): Figures
// 11a–11b.
func Fig11(o Options) []Result {
	var results []Result
	for _, bits := range []int{16, 32} {
		data, oracle := makeData(streamgen.Normal{Bits: bits, Sigma: 0.15, Seed: o.Seed}, o.n())
		results = append(results,
			turnSweep(ExpFig11, fmt.Sprintf("normal(σ=0.15,u=2^%d)", bits), bits, data, oracle, o)...)
	}
	return results
}

// Fig12 varies the skew of normal data (σ = 0.05 vs 0.25) over u = 2^24:
// Figures 12a–12b.
func Fig12(o Options) []Result {
	var results []Result
	for _, sigma := range []float64{0.05, 0.25} {
		data, oracle := makeData(streamgen.Normal{Bits: 24, Sigma: sigma, Seed: o.Seed}, o.n())
		rs := turnSweep(ExpFig12, fmt.Sprintf("normal(σ=%g,u=2^24)", sigma), 24, data, oracle, o)
		for i := range rs {
			rs[i].Sigma = sigma
		}
		results = append(results, rs...)
	}
	return results
}

func turnSweep(exp, workload string, bits int, data []uint64, oracle *exact.Oracle, o Options) []Result {
	var results []Result
	for _, eps := range turnEpsSweep(o.n()) {
		for _, algo := range TurnAlgos() {
			algo := algo
			m := average(true, o.repeats(), o.Seed, func(seed uint64) measured {
				return runTurn(algo, eps, bits, dyadic.Config{Seed: seed}, data, oracle)
			})
			results = append(results, Result{
				Experiment: exp, Algo: algo.Name, Workload: workload,
				N: int64(len(data)), Eps: eps, Bits: bits,
				SpaceBytes: m.space, UpdateNs: m.updateNs,
				MaxErr: m.maxErr, AvgErr: m.avgErr,
			})
		}
	}
	return results
}

// AblationGKImpl isolates the data-structure choice inside the GK
// summary (tree+heap vs buffered array) at small ε, where cache effects
// dominate — the mechanism behind Figure 5f.
func AblationGKImpl(o Options) []Result {
	data, oracle := makeData(streamgen.Uniform{Bits: 32, Seed: o.Seed}, o.n())
	var results []Result
	for _, name := range []string{"GKAdaptive", "GKArray"} {
		algo := CashAlgo(name)
		for _, eps := range cashEpsSweep(o.n()) {
			m := runCash(algo, eps, 32, o.Seed, data, oracle)
			results = append(results, Result{
				Experiment: ExpAblGK, Algo: name, Workload: "uniform(u=2^32)",
				N: int64(o.n()), Eps: eps, Bits: 32,
				SpaceBytes: m.space, UpdateNs: m.updateNs,
				MaxErr: m.maxErr, AvgErr: m.avgErr,
			})
		}
	}
	return results
}

// AblationExactLevels quantifies the value of keeping exact counts on
// the shallow dyadic levels instead of sketching everything.
func AblationExactLevels(o Options) []Result {
	data, oracle := makeData(streamgen.MPCATLike{Seed: o.Seed}, o.n())
	var results []Result
	for _, noExact := range []bool{false, true} {
		label := "exact-levels"
		if noExact {
			label = "all-sketched"
		}
		m := average(true, o.repeats(), o.Seed, func(seed uint64) measured {
			cfg := dyadic.Config{Seed: seed, NoExactLevels: noExact}
			return runTurn(TurnBuilder{Name: "DCS", Kind: dyadic.DCS}, 0.01, 24, cfg, data, oracle)
		})
		results = append(results, Result{
			Experiment: ExpAblExact, Algo: "DCS", Workload: label,
			N: int64(o.n()), Eps: 0.01, Bits: 24,
			SpaceBytes: m.space, UpdateNs: m.updateNs,
			MaxErr: m.maxErr, AvgErr: m.avgErr,
		})
	}
	return results
}

// AblationPostFallback compares Post's raw-sketch fallback for intervals
// outside the truncated tree against treating them as zero.
func AblationPostFallback(o Options) []Result {
	data, oracle := makeData(streamgen.MPCATLike{Seed: o.Seed}, o.n())
	var results []Result
	const eps = 0.01
	for _, noFB := range []bool{false, true} {
		label := "raw-fallback"
		if noFB {
			label = "zero-fallback"
		}
		var maxE, avgE float64
		reps := o.repeats()
		for r := 0; r < reps; r++ {
			seed := o.Seed + uint64(r)*7919
			s := dyadic.New(dyadic.DCS, eps, 24, dyadic.Config{Seed: seed})
			for _, x := range data {
				s.Insert(x)
			}
			var p *ols.Post
			if noFB {
				p = ols.ProcessNoFallback(s, ols.DefaultEta)
			} else {
				p = ols.Process(s, ols.DefaultEta)
			}
			mE, aE := oracle.EvaluateSummary(p, eps)
			maxE += mE
			avgE += aE
		}
		results = append(results, Result{
			Experiment: ExpAblPostFB, Algo: "Post", Workload: label,
			N: int64(o.n()), Eps: eps, Bits: 24,
			MaxErr: maxE / float64(reps), AvgErr: avgE / float64(reps),
		})
	}
	return results
}
