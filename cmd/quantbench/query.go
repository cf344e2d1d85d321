package main

import (
	"time"

	"streamquantiles/internal/core"
	"streamquantiles/internal/dyadic"
	"streamquantiles/internal/gk"
	"streamquantiles/internal/kll"
	"streamquantiles/internal/mrl"
	"streamquantiles/internal/ols"
	"streamquantiles/internal/qdigest"
	"streamquantiles/internal/randalg"
	"streamquantiles/internal/sharded"
	"streamquantiles/internal/snapshot"
)

// The query mode measures what the read path buys on this machine, in
// µs per full extraction of queryPhis fractions, by path: k independent
// Quantile calls ("per_phi"), one single-pass QuantileBatch ("batch"),
// and the same k queries answered from a cached query snapshot
// ("cached": exact for Snapshotter families, ε/2-grid for the rest, one
// solved ols.Post for dcs+post). Gated on the batch/per_phi and
// cached/per_phi speedups.
//
// Per sharded configuration (param is the shard count) it measures the
// epoch cache's payoff in µs per single quantile query: "cold" (a write
// before every query retires the cache, so the shards re-fold in
// parallel) vs "hot" (quiet summary, cache hit), gated on hot/cold.

// queryPhis is the number of fractions per extraction.
const queryPhis = 100

// queryFns are the three timed paths of one roster entry, each running
// one full extraction of the given fractions.
type queryFns struct {
	perPhi func(phis []float64)
	batch  func(phis []float64)
	cached func(phis []float64)
}

// summaryQueryFns builds the three paths for a plain summary. The
// cached path answers from a snapshot.Cached view built once (exact
// when the summary flattens exactly, ε/2-grid otherwise — gridEps is
// that fallback's spacing).
func summaryQueryFns(s core.Summary, gridEps float64) *queryFns {
	c := snapshot.NewCached(s, gridEps)
	return &queryFns{
		perPhi: func(phis []float64) {
			for _, phi := range phis {
				s.Quantile(phi)
			}
		},
		batch: func(phis []float64) { core.QuantileBatch(s, phis) },
		cached: func(phis []float64) {
			for _, phi := range phis {
				c.Quantile(phi)
			}
		},
	}
}

// queryCases is the query-mode roster: the ingest rosters' summaries
// (identical configurations) plus dcs+post, the study's §4.3.3
// post-processed DCS — its per-φ baseline re-solves the BLUE tree per
// query, which is exactly the cost the one-solve-per-snapshot batch
// path amortizes away.
var queryCases = []struct {
	name  string
	setup func(data []uint64) *queryFns
}{
	{"gkadaptive", func(data []uint64) *queryFns { return cashFns(gk.NewAdaptive(0.001), data) }},
	{"gktheory", func(data []uint64) *queryFns { return cashFns(gk.NewTheory(0.001), data) }},
	{"gkarray", func(data []uint64) *queryFns { return cashFns(gk.NewArray(0.001), data) }},
	{"gkbiased", func(data []uint64) *queryFns { return cashFns(gk.NewBiased(0.001), data) }},
	{"qdigest", func(data []uint64) *queryFns { return cashFns(qdigest.New(0.001, 24), data) }},
	{"mrl99", func(data []uint64) *queryFns { return cashFns(mrl.New(0.001, 7), data) }},
	{"random", func(data []uint64) *queryFns { return cashFns(randalg.New(0.001, 7), data) }},
	{"kll", func(data []uint64) *queryFns { return cashFns(kll.New(0.001, 7), data) }},
	{"dcm", func(data []uint64) *queryFns {
		return turnFns(dyadic.New(dyadic.DCM, 0.005, 24, dyadic.Config{Seed: 7}), data)
	}},
	{"dcs", func(data []uint64) *queryFns {
		return turnFns(dyadic.New(dyadic.DCS, 0.005, 24, dyadic.Config{Seed: 7}), data)
	}},
	{"drss", func(data []uint64) *queryFns {
		return turnFns(dyadic.New(dyadic.DRSS, 0.005, 24, dyadic.Config{Seed: 7}), data)
	}},
	{"dcs+post", func(data []uint64) *queryFns {
		sk := dyadic.New(dyadic.DCS, 0.005, 24, dyadic.Config{Seed: 7})
		core.InsertBatch(sk, data)
		solved := ols.Process(sk, 0)
		return &queryFns{
			perPhi: func(phis []float64) {
				for _, phi := range phis {
					ols.Process(sk, 0).Quantile(phi) // the paper's per-query solve
				}
			},
			batch:  func(phis []float64) { ols.Process(sk, 0).QuantileBatch(phis) },
			cached: func(phis []float64) { solved.QuantileBatch(phis) }, // one Post is the snapshot
		}
	}},
}

func cashFns(s core.CashRegister, data []uint64) *queryFns {
	core.UpdateBatch(s, data)
	return summaryQueryFns(s, 0.0005)
}

func turnFns(s core.Turnstile, data []uint64) *queryFns {
	core.InsertBatch(s, data)
	return summaryQueryFns(s, 0.0025)
}

// measureQuery runs one query pass.
func measureQuery(data []uint64, rs *rows) {
	// Round cap, not count: measureRounds stops a trial after ~250ms, so
	// microsecond paths run tens of thousands of rounds (stable timing)
	// while the second-scale per-φ baselines run one.
	const rounds = 1 << 16
	phis := make([]float64, queryPhis)
	for i := range phis {
		phis[i] = float64(i+1) / float64(queryPhis+1)
	}

	for _, tc := range queryCases {
		fns := tc.setup(data)
		fns.cached(phis) // warm: build the snapshot outside the timed rounds
		perPhi := measureRounds(rounds, func() { fns.perPhi(phis) })
		batch := measureRounds(rounds, func() { fns.batch(phis) })
		cached := measureRounds(rounds, func() { fns.cached(phis) })
		rs.micros(tc.name, "per_phi", 0, perPhi)
		rs.micros(tc.name, "batch", 0, batch)
		rs.micros(tc.name, "cached", 0, cached)
	}

	// Sharded fold cache: cold = a one-element write before every query
	// retires the epoch cache, so each query re-folds all P shards (in
	// parallel); hot = quiet summary, every query reuses the fold.
	const p = 4
	for _, tc := range []struct {
		name  string
		setup func() (query func(), dirty func())
	}{
		{"sharded/gkarray", func() (func(), func()) {
			s, err := sharded.NewCashRegister(p, func() core.CashRegister { return gk.NewArray(0.001) })
			if err != nil {
				panic(err)
			}
			forBatches(data, ingestBatch, s.UpdateBatch)
			return func() { s.Quantile(0.5) }, func() { s.Update(data[0]) }
		}},
		{"sharded/dcs", func() (func(), func()) {
			s, err := sharded.NewTurnstile(p, func() core.Turnstile {
				return dyadic.New(dyadic.DCS, 0.005, 24, dyadic.Config{Seed: 7})
			})
			if err != nil {
				panic(err)
			}
			forBatches(data, ingestBatch, s.InsertBatch)
			return func() { s.Quantile(0.5) }, func() { s.Insert(data[0]) }
		}},
	} {
		query, dirty := tc.setup()
		query() // warm
		cold := measureRounds(rounds, func() { dirty(); query() })
		hot := measureRounds(rounds, query)
		rs.micros(tc.name, "cold", p, cold)
		rs.micros(tc.name, "hot", p, hot)
	}
}

// measureRounds times fn and returns the per-round duration, keeping
// the fastest of three trials (same correction as measure — shared
// runners jitter, the min is the standard fix — with one more trial
// than the ingest bench because the compared quantities here are ratios
// of microsecond-scale paths, where a single throttled trial skews the
// ratio outside the compare tolerance). A trial stops early once it has
// run for ~250ms — the slow per-φ baselines (QDigest re-walks its whole
// tree per query) already dwarf timer noise in one round, and capping
// keeps the full report to seconds at n in the millions.
func measureRounds(maxRounds int, fn func()) time.Duration {
	var best time.Duration
	for r := 0; r < 3; r++ {
		start := time.Now()
		done := 0
		for i := 0; i < maxRounds; i++ {
			fn()
			done++
			if time.Since(start) > 250*time.Millisecond {
				break
			}
		}
		el := time.Since(start) / time.Duration(done)
		if r == 0 || el < best {
			best = el
		}
	}
	return best
}
