package main

import (
	"runtime"
	"time"

	sq "streamquantiles"
	"streamquantiles/internal/core"
)

// query: set-up preloads a SafeCashRegister of q-digest (u = 2^24, Zipf
// s = 1.1) item at a time. Then one goroutine runs the query mix in a
// closed loop and adds a small batch on a fixed open-loop schedule, so
// most queries hit a current snapshot and a few are first after a write.

const (
	queryBits  = 24
	queryZipfS = 1.1
	queryGroup = 64
	// preloadGroup per-item Safe updates make one preload latency sample.
	preloadGroup = 256
)

// queryMix runs the i-th operation of the stress query mix — Quantile,
// Rank, QuantileBatch(EvenPhis(ε)), RankBatch — with arguments from r.
func queryMix(c queryable, i int, r *splitmix64, phis []float64, xs []uint64, bits int) {
	mask := uint64(1)<<bits - 1
	switch i % 4 {
	case 0:
		c.Quantile(float64(r.next()>>11) / (1 << 53))
	case 1:
		c.Rank(r.next() & mask)
	case 2:
		c.QuantileBatch(phis)
	case 3:
		for j := range xs {
			xs[j] = r.next() & mask
		}
		c.RankBatch(xs)
	}
}

// spinWindow is how long before a scheduled operation an open-loop
// generator stops sleeping and starts yielding: time.Sleep alone can
// overshoot by a timer tick, which would be measured as lateness.
const spinWindow = 2 * time.Millisecond

func waitUntil(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

var mixNames = [4]string{"Quantile", "Rank", "QuantileBatch", "RankBatch"}

func runQuery(cfg *config, t *tracer, seconds float64, reps int) *results {
	res := newResults()
	sz := cfg.sz
	period := sz.queryPeriod
	// The first third of the live time replays the preload, the rest
	// serves queries.
	loadDur := time.Duration(seconds * float64(time.Second) / 3)
	dur := time.Duration(seconds*float64(time.Second)) - loadDur
	batches := int(dur / period)
	input := zipfStream(cfg.seed, sz.queryPreload+batches*sz.queryBatch, queryBits, queryZipfS)
	preload, trickle := input[:sz.queryPreload], input[sz.queryPreload:]

	var (
		d sq.CashRegister
		s *sq.SafeCashRegister
	)
	// Set-up: preload item at a time, as quantcli feeds a summary.
	var setups []float64
	for range reps {
		t0 := time.Now()
		d = newQDigest(t, queryBits)
		s = sq.NewSafeCashRegister(d)
		for _, x := range preload {
			s.Update(x)
		}
		setups = append(setups, secs(time.Since(t0)))
	}
	res.set("setup_s", median(setups), len(setups))

	// Load phase, this workload's ingest: replay the preload into fresh
	// containers, timing item-at-a-time Safe updates in groups of
	// preloadGroup. Every replay does the same work, so each group's
	// figure is its fastest over the replays: a neighbour's burst slows
	// some replays of a group, never all of them.
	best := make([]int64, (len(preload)+preloadGroup-1)/preloadGroup)
	replays := 0
	start := time.Now()
	loadEnd := start.Add(loadDur)
	for now := start; now.Before(loadEnd) || replays == 0; replays++ {
		l := sq.NewSafeCashRegister(newQDigest(nil, queryBits))
		now = time.Now()
		for j := range best {
			g0 := now
			for _, x := range preload[j*preloadGroup : min((j+1)*preloadGroup, len(preload))] {
				l.Update(x)
			}
			now = time.Now()
			if dt := int64(now.Sub(g0)); replays == 0 || dt < best[j] {
				best[j] = dt
			}
		}
		res.gate.attempted += int64(len(preload))
		res.gate.ok(l.Count() == int64(len(preload)), "load replay: Count %d after %d updates", l.Count(), len(preload))
	}
	var sum int64
	for _, dt := range best {
		sum += dt
	}
	res.set("ingest_melems_s", float64(len(preload))/float64(sum)*1e3, replays*len(preload))
	res.setLat("ingest", &lat{m: countAll(start), win: [][]int64{best}})
	res.note("query load: %d replays of the %d-element preload", replays, len(preload))

	if t != nil {
		t.active.Store(true)
	}
	// One goroutine runs the query mix in a closed loop and, between two
	// queries, issues each trickle batch that has come due, timed from
	// when it was due.
	var (
		lateMax       time.Duration
		queries, cold int64
		k, seen             = 0, -1
		r                   = splitmix64{cfg.seed ^ 0x51ed}
		phis                = core.EvenPhis(eps)
		xs                  = make([]uint64, 64)
		g                   = newG(t)
		sp            int32 = -1
	)
	start = time.Now()
	deadline := start.Add(dur)
	m := newMeter(start)
	wlat, qlat := newLat(m), newLat(m)
	now := start
	for i := 0; now.Before(deadline) || k < batches; {
		if due := start.Add(time.Duration(k) * period); k < batches && !now.Before(due) {
			lateMax = max(lateMax, now.Sub(due))
			g.end(sp)
			sp = -1
			wsp := g.begin("safe.UpdateBatch")
			s.UpdateBatch(trickle[k*sz.queryBatch : (k+1)*sz.queryBatch])
			g.end(wsp)
			now = time.Now()
			wlat.add(now, now.Sub(due))
			k++
			now = m.tick(now)
			continue
		}
		if !now.Before(deadline) {
			// Past the deadline with batches still owed: wait for them
			// rather than query, so the final state is the seed's.
			waitUntil(start.Add(time.Duration(k) * period))
			now = time.Now()
			continue
		}
		if k != seen {
			cold++
			seen = k
		}
		// One span per queryGroup queries: warm queries take about a
		// microsecond, so a span each would cost more than the query.
		if sp < 0 || i%queryGroup == 0 {
			g.end(sp)
			sp = g.begin("safe.queryMix")
		}
		q0 := now
		queryMix(s, i, &r, phis, xs, queryBits)
		now = time.Now()
		qlat.add(now, now.Sub(q0))
		queries++
		i++
		now = m.tick(now)
	}
	m.stop(now)
	g.end(sp)
	if t != nil {
		t.active.Store(false)
	}

	// Barrier: exactly `batches` batches were issued, so the final state
	// is a function of the seed.
	res.gate.attempted += int64(len(preload)) + int64(batches) + queries
	if ic, ok := d.(interface{ Invariants() error }); ok {
		res.gate.errOp("Invariants", ic.Invariants())
	}
	orc := exactOracle(input)
	acc := checkAnswers(&res.gate, s, orc, int64(2*eps*float64(orc.n()))+1, queryBits)

	res.quietNote("query serve", m)
	res.rate = qlat.rate(1)
	res.setLat("trickle", wlat)
	res.set("query_per_s", res.rate, int(queries))
	res.setLat("query", qlat)
	res.set("max_err_eps", acc.maxEps, 0)
	res.set("avg_err_eps", acc.avgEps, 0)
	res.set("space_kb", float64(s.SpaceBytes())/1024, 0)
	if t != nil {
		res.set("snapshot.cold_share", 100*float64(cold)/float64(max(queries, 1)), int(queries))
		res.set("gen.late_ms", ms(lateMax), batches)
	}
	return res
}
