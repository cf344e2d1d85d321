package main

import (
	"os"
	"path/filepath"
	"time"

	sq "streamquantiles"
	"streamquantiles/internal/core"
)

// The layer ladder replays the workload's own generated input on one
// goroutine, untraced, through each layer in turn: raw summary, the core
// batch path, the Safe wrapper, sharded P=1, a P=1 writer handle and
// sharded P=N, then reshards and checkpoints the P=N container. Each
// rung's cost is a median over repetitions. The raw rungs run all three
// families (kll, qdigest, dyadic) on the workload's input; the container
// rungs run the workload's own family. Every element passes through
// one indirect call (a method value) on every rung, so rungs compare
// like with like.

// family is one summary family as the ladder drives it; exactly one of
// cash and turn is set.
type family struct {
	name string // layer name
	n    int    // ladder input length
	bits int    // universe the input is masked into
	cash func() sq.CashRegister
	turn func() sq.Turnstile
}

func ladderFamilies(cfg *config) []family {
	seed := cfg.seed
	return []family{
		{name: "kll", n: cfg.sz.ladderKLL, bits: ingestBits,
			cash: func() sq.CashRegister { return sq.NewKLL(eps, seed) }},
		{name: "qdigest", n: cfg.sz.ladderQDigest, bits: queryBits,
			cash: func() sq.CashRegister { return sq.NewQDigest(eps, queryBits) }},
		{name: "dyadic", n: cfg.sz.ladderDyadic, bits: churnBits,
			turn: func() sq.Turnstile { return sq.NewDCS(eps, churnBits, sq.DyadicConfig{Seed: seed}) }},
	}
}

// ladderInput is the first n elements of the workload's own stream.
func ladderInput(cfg *config, n int) []uint64 {
	switch cfg.workload {
	case "ingest":
		return uniformStream(cfg.seed*1000+1, n, ingestBits)
	case "query":
		return zipfStream(cfg.seed, n, queryBits, queryZipfS)
	}
	return churnWindow(cfg.seed, 0, int64(n))
}

// raw returns a fresh bare summary with its per-element insert.
func (f family) raw() (core.Summary, func(uint64)) {
	if f.cash != nil {
		s := f.cash()
		return s, s.Update
	}
	s := f.turn()
	return s, s.Insert
}

func (f family) safe() (queryable, func(uint64)) {
	if f.cash != nil {
		s := sq.NewSafeCashRegister(f.cash())
		return s, s.Update
	}
	s := sq.NewSafeTurnstile(f.turn())
	return s, s.Insert
}

func (f family) sharded(p int) (shardedC, func(uint64), error) {
	if f.cash != nil {
		c, err := sq.NewShardedCashRegister(p, f.cash)
		if err != nil {
			return nil, nil, err
		}
		return c, c.Update, nil
	}
	c, err := sq.NewShardedTurnstile(p, f.turn)
	if err != nil {
		return nil, nil, err
	}
	return c, c.Insert, nil
}

// writer acquires a writer handle on c: its per-element insert, its
// buffer fill and its flush.
func writer(c shardedC) (add func(uint64), buffered func() int, flush func()) {
	switch c := c.(type) {
	case *sq.ShardedCashRegister:
		w := c.AcquireWriter()
		return w.Update, w.Buffered, w.Flush
	case *sq.ShardedTurnstile:
		w := c.AcquireWriter()
		return w.Insert, w.Buffered, w.Flush
	}
	panic("e2ebench: unknown container")
}

// feedNs feeds xs through add and returns ns per element.
func feedNs(xs []uint64, add func(uint64)) float64 {
	t0 := time.Now()
	for _, x := range xs {
		add(x)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(xs))
}

// coldUs is the median latency of query right after a one-element
// write, so every query is the first after a write.
func coldUs(probes int, write func(uint64), query func(), r *splitmix64, bits int) float64 {
	xs := make([]float64, probes)
	for i := range xs {
		write(r.next() & (1<<bits - 1))
		t0 := time.Now()
		query()
		xs[i] = us(time.Since(t0))
	}
	return median(xs)
}

// warmUs is the median latency of a repeated query with no writes
// between.
func warmUs(probes int, query func()) float64 {
	query()
	xs := make([]float64, probes)
	for i := range xs {
		t0 := time.Now()
		query()
		xs[i] = us(time.Since(t0))
	}
	return median(xs)
}

// setIfAbsent fills a per-layer metric the traced live run did not
// measure because the workload bypasses that layer.
func (r *results) setIfAbsent(name string, v float64, samples int) {
	if _, ok := r.m[name]; !ok {
		r.set(name, v, samples)
	}
}

func runLadder(cfg *config, res *results) {
	sz := cfg.sz
	reps, probes := sz.ladderReps, sz.ladderProbes
	phis := core.EvenPhis(eps)
	r := splitmix64{cfg.seed ^ 0x1add}
	own := map[string]string{"ingest": "kll", "query": "qdigest", "churn": "dyadic"}[cfg.workload]
	for _, f := range ladderFamilies(cfg) {
		xs := ladderInput(cfg, f.n)
		for i := range xs {
			xs[i] &= 1<<f.bits - 1
		}
		// Raw summary, per element.
		var s core.Summary
		var add func(uint64)
		upd := medianOf(reps, func() float64 {
			s, add = f.raw()
			return feedNs(xs, add)
		})
		cold := coldUs(probes, add, func() { sq.QuantileBatch(s, phis) }, &r, f.bits)
		res.set(f.name+".query_cold_us", cold, probes)
		switch f.name {
		case "kll":
			res.set("kll.update_ns", upd, reps)
			res.set("kll.space_bytes", float64(s.SpaceBytes()), 0)
			batch := medianOf(reps, func() float64 {
				b, _ := f.raw()
				cr := b.(sq.CashRegister)
				t0 := time.Now()
				for i := 0; i < len(xs); i += 1024 {
					sq.UpdateBatch(cr, xs[i:min(i+1024, len(xs))])
				}
				return float64(time.Since(t0).Nanoseconds()) / float64(len(xs))
			})
			res.set("kll.update_batch_ns", batch, reps)
		case "qdigest":
			res.set("qdigest.update_ns", upd, reps)
		case "dyadic":
			res.set("dyadic.insert_ns", upd, reps)
			del := medianOf(reps, func() float64 {
				d, ins := f.raw()
				for _, x := range xs {
					ins(x)
				}
				return feedNs(xs, d.(sq.Turnstile).Delete)
			})
			res.set("dyadic.delete_ns", del, reps)
		}
		if f.name == own {
			ladderContainers(cfg, res, f, xs, &r)
		}
	}
}

// ladderContainers runs the container rungs for the workload's own
// family.
func ladderContainers(cfg *config, res *results, f family, xs []uint64, r *splitmix64) {
	sz := cfg.sz
	reps, probes := sz.ladderReps, sz.ladderProbes
	phis := core.EvenPhis(eps)
	var g gate

	// Safe wrapper.
	var sf queryable
	var sfAdd func(uint64)
	res.set("safe.update_ns", medianOf(reps, func() float64 {
		sf, sfAdd = f.safe()
		return feedNs(xs, sfAdd)
	}), reps)
	res.set("safe.query_cold_us", coldUs(probes, sfAdd, func() { sf.QuantileBatch(phis) }, r, f.bits), probes)
	res.set("snapshot.query_warm_us", warmUs(probes, func() { sf.QuantileBatch(phis) }), probes)

	// Sharded P=1, handle-less, then through a writer handle.
	var p1 shardedC
	var p1Add func(uint64)
	res.set("sharded.p1_update_ns", medianOf(reps, func() float64 {
		var err error
		if p1, p1Add, err = f.sharded(1); err != nil {
			g.errOp("new sharded P=1", err)
			return 0
		}
		return feedNs(xs, p1Add)
	}), reps)
	if p1 == nil {
		res.gate.add(&g)
		return
	}
	res.set("sharded.p1_query_cold_us", coldUs(probes, p1Add, func() { p1.QuantileBatch(phis) }, r, f.bits), probes)
	res.set("sharded.writer_update_ns", medianOf(reps, func() float64 {
		c, _, err := f.sharded(1)
		if err != nil {
			g.errOp("new sharded P=1", err)
			return 0
		}
		add, _, flush := writer(c)
		t0 := time.Now()
		for _, x := range xs {
			add(x)
		}
		flush()
		return float64(time.Since(t0).Nanoseconds()) / float64(len(xs))
	}), reps)

	// Sharded P=N, filled by one writer handle per shard; the calls
	// that flush (Buffered() does not grow) are timed.
	pn, pnAdd, err := f.sharded(2)
	if err != nil {
		g.errOp("new sharded P=2", err)
		res.gate.add(&g)
		return
	}
	flushes := newLat(countAll(time.Now()))
	for _, half := range [][]uint64{xs[:len(xs)/2], xs[len(xs)/2:]} {
		add, buffered, flush := writer(pn)
		for _, x := range half {
			b := buffered()
			t0 := time.Now()
			add(x)
			if d := time.Since(t0); buffered() <= b {
				flushes.add(t0.Add(d), d)
			}
		}
		flush()
	}
	res.setIfAbsent("sharded.flush_p50_us", flushes.pct(50), flushes.n())
	res.setIfAbsent("sharded.flush_p99_us", flushes.pct(99), flushes.n())
	res.setIfAbsent("sharded.flushes", float64(flushes.n()), 0)
	res.set("sharded.query_cold_us", coldUs(probes, pnAdd, func() { pn.QuantileBatch(phis) }, r, f.bits), probes)
	res.set("sharded.query_warm_us", warmUs(probes, func() { pn.QuantileBatch(phis) }), probes)

	// Elastic: reshard 2→4→2… with a DrainObserver timing each
	// per-shard drain.
	var drains, shardMarshal syncLat
	pn.SetDrainObserver(observe(nil, "sharded.drain", &drains))
	var reshards []float64
	for k := 0; k < 2*reps; k++ {
		p := 4
		if k%2 == 1 {
			p = 2
		}
		t0 := time.Now()
		g.errOp("Reshard", pn.Reshard(p))
		reshards = append(reshards, ms(time.Since(t0)))
	}
	res.set("sharded.reshard_ms", median(reshards), len(reshards))
	res.set("sharded.drain_max_us", drains.maxUs(), drains.n())
	res.setIfAbsent("sharded.generations", float64(pn.Generation()+1), 0)
	res.setIfAbsent("sharded.components", float64(pn.Components()), 0)
	res.setIfAbsent("sharded.eps_budget", pn.EpsBudget(), 0)

	// Checkpoint: marshal (CheckpointObserver per shard), Save of the
	// pre-marshalled blob, and recovery into a fresh container through a
	// timing unmarshaler.
	pn.SetCheckpointObserver(observe(nil, "sharded.shard_marshal", &shardMarshal))
	ck, err := sq.OpenCheckpointDir(filepath.Join(cfg.workDir, "ladder-"+f.name))
	if err != nil {
		g.errOp("open checkpoint dir", err)
		res.gate.add(&g)
		return
	}
	defer os.RemoveAll(ck.Dir())
	const ckReps = 5
	var marshal, write, read, unmarshal []float64
	var size, skipped int
	for k := 0; k < ckReps; k++ {
		t0 := time.Now()
		blob, err := pn.MarshalBinary()
		marshal = append(marshal, ms(time.Since(t0)))
		if g.errOp("MarshalBinary", err); err != nil {
			continue
		}
		size = len(blob)
		target, _, err := f.sharded(2)
		if g.errOp("new sharded P=2", err); err != nil {
			continue
		}
		t1 := time.Now()
		_, err = ck.Save("e2ebench", blob)
		w := time.Since(t1)
		if g.errOp("checkpoint Save", err); err != nil {
			continue
		}
		// Recovery goes through sq.RecoverCheckpoint, which decodes and
		// validates invariants exactly as a restarting user's would.
		u := &timedUnmarshal{c: target}
		t2 := time.Now()
		rep, err := sq.RecoverCheckpoint(ck.Dir(), u)
		rec := time.Since(t2)
		if g.errOp("RecoverCheckpoint", err); err != nil {
			continue
		}
		g.ok(target.Count() == pn.Count(), "recovered count %d, saved %d", target.Count(), pn.Count())
		skipped += len(rep.Skipped)
		write = append(write, ms(w))
		unmarshal = append(unmarshal, ms(u.took))
		read = append(read, ms(rec-u.took))
	}
	res.set("sharded.marshal_ms", median(marshal), len(marshal))
	res.set("sharded.shard_marshal_max_us", shardMarshal.maxUs(), shardMarshal.n())
	res.set("sharded.unmarshal_ms", median(unmarshal), len(unmarshal))
	res.set("checkpoint.write_ms", median(write), len(write))
	res.set("checkpoint.read_ms", median(read), len(read))
	res.set("checkpoint.bytes", float64(size), 0)
	prev := res.m["checkpoint.skipped"].value
	res.set("checkpoint.skipped", prev+float64(skipped), 0)
	res.gate.add(&g)
}
