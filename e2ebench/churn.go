package main

import (
	"os"
	"time"

	sq "streamquantiles"
	"streamquantiles/internal/core"
)

// churn: a turnstile workload on a P=2 sharded DCS over 2^20 with
// bounded out-of-order arrival, driven by one goroutine. It inserts
// through a TurnWriter and deletes the stream prefix once it leads by
// churnLead elements, runs the query mix after each group of writes, on
// a fixed schedule saves a checkpoint (every second save followed by a
// recovery drill into a fresh container), and at mid-run reshards 2→4.

const (
	churnShards = 2
	churnGrow   = 4
	// churnGroup insert+delete pairs make one ingest latency sample: as
	// many as a writer handle buffers, so each sample spans one flush.
	churnGroup = 1024
	// churnQueries query-mix operations follow each writer group.
	churnQueries = 2
)

func newChurnContainer(t *tracer, seed uint64) (*sq.ShardedTurnstile, error) {
	return sq.NewShardedTurnstile(churnShards, func() sq.Turnstile { return newDCS(t, seed) })
}

func runChurn(cfg *config, t *tracer, seconds float64, reps int) *results {
	res := newResults()
	sz := cfg.sz
	lead := int64(sz.churnLead)
	var (
		tc     *sq.ShardedTurnstile
		wr     *sq.TurnWriter
		ck     *sq.Checkpointer
		drains syncLat
		shards syncLat
	)
	var setups []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		var err error
		if tc, err = newChurnContainer(t, cfg.seed); err != nil {
			res.gate.errOp("NewShardedTurnstile", err)
			return res
		}
		wr = tc.AcquireWriter()
		for i := int64(0); i < lead; i++ {
			wr.Insert(churnValue(cfg.seed, uint64(i)))
		}
		wr.Flush()
		dir, err := os.MkdirTemp(cfg.workDir, "churn-")
		if err == nil {
			ck, err = sq.OpenCheckpointDir(dir)
		}
		if err != nil {
			res.gate.errOp("open checkpoint dir", err)
			return res
		}
		setups = append(setups, secs(time.Since(t0)))
	}
	res.set("setup_s", median(setups), len(setups))
	tc.SetDrainObserver(observe(t, "sharded.drain", &drains))
	tc.SetCheckpointObserver(observe(t, "sharded.shard_marshal", &shards))

	if t != nil {
		t.active.Store(true)
	}
	// One goroutine alternates a writer group with churnQueries query-mix
	// operations and, between the two, runs each scheduled save (timed
	// from when it was due, every second one followed by a recovery
	// drill) and the mid-run reshard.
	var (
		cg             gate
		g              = newG(t)
		r              = splitmix64{cfg.seed ^ 0xc0ffee}
		phis           = core.EvenPhis(eps)
		xs             = make([]uint64, 64)
		ins, del       = lead, int64(0)
		insPub, delPub = lead, int64(0) // delivered counts, published at each flush
		slack          int64            // most operations issued between two publications
		flushAt        = -1
		flushes        int64
		queries, cold  int64
		seen           = int64(-1)
		saves, skipped int64
		reshardMs      float64
		late           time.Duration
		resharded      bool
	)
	pub := func() (int64, int64) { return insPub, delPub }
	start := time.Now()
	dur := time.Duration(seconds * float64(time.Second))
	deadline := start.Add(dur)
	nextSave := start.Add(sz.churnSavePeriod)
	m := newMeter(start)
	ing, flush, qlat, save, recv := newLat(m), newLat(m), newLat(m), newLat(m), newLat(m)
	now := start
	for i := 0; now.Before(deadline); {
		sp := g.begin("sharded.TurnWriter.InsertDelete")
		t0 := now
		for range churnGroup {
			x := churnValue(cfg.seed, uint64(ins))
			if b := wr.Buffered(); t != nil && b == flushAt {
				fsp := g.begin("sharded.TurnWriter.Insert(flush)")
				f0 := time.Now()
				wr.Insert(x)
				flush.since(f0)
				g.end(fsp)
			} else {
				wr.Insert(x)
				if flushAt < 0 && wr.Buffered() == 0 {
					flushAt = b
				}
			}
			ins++
			if wr.Buffered() == 0 {
				flushes++
				slack = max(slack, ins+del-insPub-delPub)
				insPub, delPub = ins, del
			}
			wr.Delete(churnValue(cfg.seed, uint64(del)))
			del++
		}
		now = time.Now()
		ing.add(now, now.Sub(t0))
		g.end(sp)
		now = m.tick(now)

		for range churnQueries {
			if flushes != seen {
				cold++
				seen = flushes
			}
			var qsp int32
			if t != nil {
				qsp = g.begin("sharded." + mixNames[i%4])
			}
			q0 := now
			queryMix(tc, i, &r, phis, xs, churnBits)
			now = time.Now()
			qlat.add(now, now.Sub(q0))
			g.end(qsp)
			queries++
			i++
		}

		if !now.Before(nextSave) {
			due := nextSave
			nextSave = nextSave.Add(sz.churnSavePeriod)
			late = max(late, now.Sub(due))
			saves++
			gen, i0, d0, i1, d1, ok := churnSave(g, &cg, tc, ck, pub)
			save.since(due)
			if ok && saves%2 == 0 {
				r0 := time.Now()
				skipped += churnDrill(g, &cg, t, cfg.seed, ck, gen, i0-d1-slack, i1-d0+slack)
				recv.since(r0)
			}
			now = time.Now()
		}
		if !resharded && now.Sub(start) >= dur/2 {
			resharded = true
			sp := g.begin("sharded.Reshard")
			r0 := time.Now()
			cg.errOp("Reshard", tc.Reshard(churnGrow))
			now = time.Now()
			reshardMs = ms(now.Sub(r0))
			g.end(sp)
		}
	}
	m.stop(now)
	late = max(late, now.Sub(deadline))
	wr.Close()
	if t != nil {
		t.active.Store(false)
	}
	res.gate.add(&cg)

	// Barrier: the writer has closed its handle, so the live multiset is
	// exactly the stream window [del, ins).
	res.gate.attempted += ins - lead + del + queries + saves
	res.gate.errOp("Invariants", tc.Invariants())
	orc := exactOracle(churnWindow(cfg.seed, del, ins))
	acc := checkAnswers(&res.gate, tc, orc, containerTol(tc, orc.n()), churnBits)

	res.quietNote("churn", m)
	res.rate = ing.rate(2*churnGroup) / 1e6
	res.set("ingest_melems_s", res.rate, int(ins-lead+del))
	res.setLat("ingest", ing)
	res.set("query_per_s", qlat.rate(1), int(queries))
	res.setLat("query", qlat)
	res.set("save_ms", save.pct(50)/1e3, save.n())
	res.set("recover_ms", recv.pct(50)/1e3, recv.n())
	res.set("max_err_eps", acc.maxEps, 0)
	res.set("avg_err_eps", acc.avgEps, 0)
	res.set("space_kb", float64(tc.SpaceBytes())/1024, 0)
	res.note("churn: reshard 2→%d took %.3f ms, max per-shard drain %.1f us, max per-shard marshal %.1f us, %d saves", churnGrow, reshardMs, drains.maxUs(), shards.maxUs(), saves)
	if t != nil {
		res.set("sharded.flush_p50_us", flush.pct(50), flush.n())
		res.set("sharded.flush_p99_us", flush.pct(99), flush.n())
		res.set("sharded.flushes", float64(flushes), 0)
		res.set("snapshot.cold_share", 100*float64(cold)/float64(max(queries, 1)), int(queries))
		res.set("sharded.generations", float64(tc.Generation()+1), 0)
		res.set("sharded.components", float64(tc.Components()), 0)
		res.set("sharded.eps_budget", tc.EpsBudget(), 0)
		res.set("checkpoint.skipped", float64(skipped), 0)
		res.set("gen.late_ms", ms(late), int(saves)+1)
	}
	return res
}

// churnSave marshals the container and saves it as the next checkpoint
// generation. It also returns the writer's published (inserted, deleted)
// counts just before and just after the marshal, which bracket the
// saved count.
func churnSave(g *gctx, cg *gate, tc *sq.ShardedTurnstile, ck *sq.Checkpointer, pub func() (int64, int64)) (gen uint64, i0, d0, i1, d1 int64, ok bool) {
	root := g.begin("bench.save")
	defer g.end(root)
	i0, d0 = pub()
	sp := g.begin("sharded.MarshalBinary")
	blob, err := tc.MarshalBinary()
	g.end(sp)
	i1, d1 = pub()
	if cg.errOp("MarshalBinary", err); err != nil {
		return 0, 0, 0, 0, 0, false
	}
	sp = g.begin("checkpoint.Save")
	gen, err = ck.Save("dcs", blob)
	g.end(sp)
	cg.errOp("checkpoint Save", err)
	return gen, i0, d0, i1, d1, err == nil
}

// churnDrill recovers the newest checkpoint into a fresh container and
// checks it: the saved generation, Invariants(), and a count within
// [lo, hi]. It returns how many generations recovery skipped.
func churnDrill(g *gctx, cg *gate, t *tracer, seed uint64, ck *sq.Checkpointer, gen uint64, lo, hi int64) int64 {
	root := g.begin("bench.recover")
	defer g.end(root)
	target, err := newChurnContainer(t, seed)
	if cg.errOp("NewShardedTurnstile", err); err != nil {
		return 0
	}
	sp := g.begin("checkpoint.Recover")
	rep, err := sq.RecoverCheckpoint(ck.Dir(), &timedUnmarshal{c: target, t: t})
	g.end(sp)
	if cg.errOp("RecoverCheckpoint", err); err != nil {
		return 0
	}
	cg.ok(rep.Generation == gen, "recovered generation %d, saved %d", rep.Generation, gen)
	cg.errOp("recovered Invariants", target.Invariants())
	n := target.Count()
	cg.ok(n >= lo && n <= hi, "recovered count %d outside the conserved bracket [%d, %d]", n, lo, hi)
	return int64(len(rep.Skipped))
}
