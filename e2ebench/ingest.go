package main

import (
	"time"

	sq "streamquantiles"
	"streamquantiles/internal/core"
	"streamquantiles/internal/exact"
)

// ingest: one closed-loop goroutine drives two AcquireWriter handles on
// a P=2 sharded KLL in turn, a group of per-item Updates at a time,
// feeding uniform values over 2^24, and issues one
// QuantileBatch(EvenPhis(ε)) after every ingestQueryEvery of a handle's
// own elements. The operation sequence is a function of the seed alone,
// so runs differ only in how fast the machine executes it.

const (
	ingestWriters = 2
	ingestShards  = 2
	ingestBits    = 24
	// ingestGroup per-item writer calls make one ingest latency sample:
	// as many as a writer handle buffers, so each sample spans one flush.
	ingestGroup = 1024
)

func runIngest(cfg *config, t *tracer, seconds float64, reps int) *results {
	res := newResults()
	sz := cfg.sz
	phis := core.EvenPhis(eps)
	var (
		c       *sq.ShardedCashRegister
		writers []*sq.CashWriter
		streams [][]uint64
		pos     []int
	)
	// Set-up: generate each handle's stream, build the container and
	// warm it with ingestWarm elements per handle, the way a long-running
	// ingester reaches its steady compaction depth.
	var setups []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		streams = make([][]uint64, ingestWriters)
		for w := range streams {
			streams[w] = uniformStream(cfg.seed*1000+uint64(w)+1, sz.ingestStream, ingestBits)
		}
		var err error
		c, err = sq.NewShardedCashRegister(ingestShards, func() sq.CashRegister { return newKLL(t, cfg.seed) })
		if err != nil {
			res.gate.errOp("NewShardedCashRegister", err)
			return res
		}
		writers = make([]*sq.CashWriter, ingestWriters)
		pos = make([]int, ingestWriters)
		for w := range writers {
			writers[w] = c.AcquireWriter()
		}
		for i := 0; i < sz.ingestWarm; i += ingestGroup {
			for w, wr := range writers {
				s := streams[w]
				for range min(ingestGroup, sz.ingestWarm-i) {
					wr.Update(s[pos[w]])
					if pos[w]++; pos[w] == len(s) {
						pos[w] = 0
					}
				}
			}
		}
		setups = append(setups, secs(time.Since(t0)))
	}
	res.set("setup_s", median(setups), len(setups))

	if t != nil {
		t.active.Store(true)
	}
	g := newG(t)
	written := make([]int64, ingestWriters)
	nextQuery := make([]int64, ingestWriters)
	for w := range nextQuery {
		nextQuery[w] = int64(sz.ingestQueryEvery)
	}
	flushAt := make([]int, ingestWriters)
	for w := range flushAt {
		flushAt[w] = -1
	}
	var queries, flushes, cold, lastFlushes int64 = 0, 0, 0, -1
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	m := newMeter(start)
	ing, qry, fl := newLat(m), newLat(m), newLat(m)
	now := start
	for now.Before(deadline) {
		for w, wr := range writers {
			s := streams[w]
			sp := g.begin("sharded.CashWriter.Update")
			t0 := now
			if t == nil {
				for range ingestGroup {
					wr.Update(s[pos[w]])
					if pos[w]++; pos[w] == len(s) {
						pos[w] = 0
					}
				}
			} else {
				// Traced: time and span the calls that flush, found by
				// watching Buffered().
				for range ingestGroup {
					x := s[pos[w]]
					if pos[w]++; pos[w] == len(s) {
						pos[w] = 0
					}
					b := wr.Buffered()
					if b != flushAt[w] {
						wr.Update(x)
						if flushAt[w] < 0 && wr.Buffered() == 0 {
							flushAt[w] = b
							flushes++
						}
						continue
					}
					fsp := g.begin("sharded.CashWriter.Update(flush)")
					f0 := time.Now()
					wr.Update(x)
					fl.since(f0)
					g.end(fsp)
					flushes++
				}
			}
			now = time.Now()
			ing.add(now, now.Sub(t0))
			g.end(sp)
			now = m.tick(now)
			written[w] += ingestGroup
			if written[w] >= nextQuery[w] {
				nextQuery[w] += int64(sz.ingestQueryEvery)
				if flushes != lastFlushes {
					cold++
					lastFlushes = flushes
				}
				qsp := g.begin("sharded.QuantileBatch")
				q0 := now
				c.QuantileBatch(phis)
				now = time.Now()
				qry.add(now, now.Sub(q0))
				g.end(qsp)
				queries++
				now = m.tick(now)
			}
		}
	}
	m.stop(now)
	late := now.Sub(deadline)
	if t != nil {
		t.active.Store(false)
	}

	// Barrier: close the handles and check the container against the
	// exact oracle. Handle w replays its stream in laps, so its multiset
	// is laps copies of the stream plus a prefix.
	var orc oracle
	var total int64
	for w, wr := range writers {
		wr.Close()
		total += written[w]
		// Each set-up rep warmed a fresh container; only the last is live.
		n := int64(sz.ingestWarm) + written[w]
		s := streams[w]
		laps, rest := n/int64(len(s)), n%int64(len(s))
		if laps > 0 {
			orc = append(orc, weightedPart{exact.New(s), laps})
		}
		if rest > 0 {
			orc = append(orc, weightedPart{exact.New(s[:rest]), 1})
		}
	}
	res.gate.attempted += total + queries
	res.gate.errOp("Invariants", c.Invariants())
	acc := checkAnswers(&res.gate, c, orc, containerTol(c, orc.n()), ingestBits)

	res.quietNote("ingest", m)
	res.rate = ing.rate(ingestGroup) / 1e6
	res.set("ingest_melems_s", res.rate, int(total))
	res.setLat("ingest", ing)
	res.set("query_per_s", qry.rate(1), int(queries))
	res.setLat("query", qry)
	res.set("max_err_eps", acc.maxEps, len(phis))
	res.set("avg_err_eps", acc.avgEps, len(phis))
	res.set("space_kb", float64(c.SpaceBytes())/1024, 0)
	if t != nil {
		res.set("sharded.flush_p50_us", fl.pct(50), fl.n())
		res.set("sharded.flush_p99_us", fl.pct(99), fl.n())
		res.set("sharded.flushes", float64(flushes), 0)
		res.set("snapshot.cold_share", 100*float64(cold)/float64(max(queries, 1)), int(queries))
		res.set("sharded.generations", float64(c.Generation()+1), 0)
		res.set("sharded.components", float64(c.Components()), 0)
		res.set("sharded.eps_budget", c.EpsBudget(), 0)
		res.set("gen.late_ms", ms(late), 1)
	}
	return res
}
