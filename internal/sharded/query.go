package sharded

import (
	"errors"
	"sync"
	"sync/atomic"

	"streamquantiles/internal/core"
)

// Query-side machinery shared by CashRegister and Turnstile.
//
// The old query path re-probed mergeability and re-folded all P shards
// sequentially on every call. Both costs are gone:
//
//   - Mergeability (the family implements core.Mergeable AND the
//     factory produces merge-compatible instances — identical configs
//     and seeds) is probed once per factory against two throwaway
//     instances and cached on the generation; a factory drawing random
//     seeds is detected up front instead of failing inside every query.
//   - Each shard carries a write epoch, bumped under its lock before
//     every mutation. The combined artifact (merged summary or
//     per-shard snapshots) is cached together with the generation id,
//     the retired-component version, and the epoch vector observed
//     while each shard was read; a later query revalidates all three
//     lock-free and reuses the artifact when nothing changed — repeated
//     queries on a quiet sharded summary never fold anything and never
//     touch the topology lock.
//   - A rebuild folds the shards by a parallel tree-merge on the
//     package's one worker pool (fanout): one task per shard merges
//     that shard into its own fresh summary (holding only that shard's
//     lock), then the P partials reduce pairwise in ⌈log₂P⌉ parallel
//     rounds. Rebuilds run under the topology read lock, so a fold
//     never observes a half-drained reshard.
//
// Accuracy of the non-mergeable (GK) combination, via cached exact
// per-shard snapshots: the summed estimate R̂(x) = Σᵢ R̂ᵢ(x) differs
// from the true combined rank by at most Σᵢ(2εᵢnᵢ + 1) ≤ 2εn + parts —
// each shard's midpoint estimator is uncertain by the ⌊2εᵢnᵢ⌋ capacity
// of the gap a probe falls into, plus one for its −1 bias; parts counts
// live shards plus the components frozen by elastic operations. The
// bitwise descent (rankQuantile) inverts R̂ within the same bound. The
// snapshots are exact flattenings, so this path returns byte-identical
// answers to folding the live shards while quiescent.

// foldCaps records what query artifacts a factory's summaries support,
// probed once per factory (construction, Retarget, decode).
type foldCaps struct {
	// mergeable: the factory's summaries fold into one via
	// core.Mergeable. snapAll: they flatten exactly via
	// core.Snapshotter.
	mergeable bool
	snapAll   bool
}

// probeCaps probes a factory against two throwaway instances, so the
// probe merge cannot perturb live shards.
func probeCaps(fresh func() core.Summary) foldCaps {
	a, b := fresh(), fresh()
	var caps foldCaps
	if m, ok := a.(core.Mergeable); ok {
		caps.mergeable = m.MergeSummary(b) == nil
	}
	_, caps.snapAll = a.(core.Snapshotter)
	return caps
}

// epsReporter is implemented by summaries that expose their error
// budget; elastic operations use it to compare budgets across a
// Retarget and to report the composed budget (EpsBudget).
type epsReporter interface{ Eps() float64 }

// queryCache holds the epoch-keyed combined artifact.
type queryCache struct {
	mu  sync.Mutex // serializes rebuilds
	cur atomic.Pointer[combinedEntry]
}

// invalidate drops the cached fold. Elastic operations call it under
// the topology write lock; readers that raced past the generation swap
// are still safe because current rechecks the generation id.
func (q *queryCache) invalidate() { q.cur.Store(nil) }

// combinedEntry is one cached fold of the whole container. Exactly one
// of the three live-shard artifact shapes is populated:
//
//   - qs: exact snapshot of the merged summary (mergeable Snapshotter
//     families — KLL, MRL99, Random, QDigest), or of a lone shard's own
//     summary (every Snapshotter family). Queries never touch the
//     summary itself, which matters for QDigest, whose queries flush.
//   - sum: the merged summary, queried directly (mergeable
//     non-Snapshotter families — the dyadic sketches, whose queries are
//     pure reads).
//   - snaps: one exact snapshot per shard (non-mergeable Snapshotter
//     families — the GK tuple summaries), combined by additive rank.
//
// comps carries the frozen retired components captured at fold time;
// when present, ranks add their contribution and quantiles go through
// the rank descent over the combined estimate.
//
// All artifacts are immutable once built, so queries are lock-free.
// For the same reason a retired entry is never recycled into a pool:
// a reader that loaded it just before the epoch bump may still be
// mid-query, so its arrays must stay untouched until the GC reclaims
// them. Pooling on this path is confined to per-call descent scratch
// (descentPool, rankBufPool), which never escapes its function.
type combinedEntry struct {
	genID  uint64   // topology generation at fold time
	retVer uint64   // retired-component version at fold time
	epochs []uint64 // per-shard write epoch at fold time
	n      int64    // combined count at fold time (components included)
	qs     *core.QuerySnapshot
	sum    core.Summary
	snaps  []*core.QuerySnapshot
	comps  []*retiredComp
}

// entry returns a fold of the container valid for its current topology
// and epochs, rebuilding at most once per write generation; nil when
// the family supports neither folding shape (GKBiased) and the caller
// must fold the live shards itself. A lone shard — one shard, no frozen
// component — is never folded: its artifact is the shard's own exact
// snapshot, so it answers exactly like its summary, and without one
// entry returns nil and the caller queries the live summary under the
// shard lock (loneLocked).
func (b *base[S]) entry() *combinedEntry {
	q := &b.q
	if e := q.cur.Load(); e != nil && b.current(e) {
		return e
	}
	defer b.topoRLock()()
	q.mu.Lock()
	defer q.mu.Unlock()
	if e := q.cur.Load(); e != nil && b.current(e) {
		return e // another query rebuilt first
	}
	g := b.gen.Load()
	comps := b.ret.comps
	lone := len(g.shards) == 1 && len(comps) == 0
	var e *combinedEntry
	if g.caps.mergeable && !lone {
		e = rebuildCombined(g)
	}
	if e == nil && g.caps.snapAll {
		e = rebuildSnaps(g)
	}
	if e == nil {
		return nil
	}
	if lone {
		e.qs, e.snaps = e.snaps[0], nil
	}
	e.genID = g.id
	e.retVer = b.ret.ver.Load()
	if len(comps) > 0 {
		e.comps = comps
		for _, c := range comps {
			e.n += c.n
		}
	}
	q.cur.Store(e)
	return e
}

// mergedFold folds all shards of g into one fresh summary by parallel
// tree-merge.
func mergedFold[S core.Summary](g *gen[S]) (core.Summary, []uint64, error) {
	p := len(g.shards)
	epochs := make([]uint64, p)
	parts := make([]core.Summary, p)
	err := fanout(p, 0, func(i int) error {
		m := g.fresh()
		mg, ok := any(m).(core.Mergeable)
		if !ok {
			return errFoldMerge
		}
		var err error
		epochs[i] = g.withShard(i, func(s core.Summary) { err = mg.MergeSummary(s) })
		parts[i] = m
		return err
	})
	if err != nil || mergeTree(parts) != nil {
		return nil, nil, errFoldMerge
	}
	return parts[0], epochs, nil
}

// errFoldMerge reports a shard fold that could not merge.
var errFoldMerge = errors.New("sharded: shard fold merge failed")

// rebuildCombined folds all shards into one merged summary; nil when
// any merge fails.
func rebuildCombined[S core.Summary](g *gen[S]) *combinedEntry {
	sum, epochs, err := mergedFold(g)
	if err != nil {
		return nil
	}
	e := &combinedEntry{epochs: epochs, n: sum.Count(), sum: sum}
	if ss, ok := sum.(core.Snapshotter); ok {
		e.qs = core.BuildQuerySnapshot(ss)
		e.sum = nil // answer only from the immutable snapshot
	}
	return e
}

// mergeTree pairwise-reduces parts into parts[0]: round r merges
// partials 2ʳ apart, every pair in parallel.
func mergeTree(parts []core.Summary) error {
	for stride := 1; stride < len(parts); stride *= 2 {
		var dsts []int
		for i := 0; i+stride < len(parts); i += 2 * stride {
			dsts = append(dsts, i)
		}
		err := fanout(len(dsts), 0, func(j int) error {
			i := dsts[j]
			return parts[i].(core.Mergeable).MergeSummary(parts[i+stride])
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// rebuildSnaps flattens every shard into an exact snapshot, in
// parallel, each under its own shard lock.
func rebuildSnaps[S core.Summary](g *gen[S]) *combinedEntry {
	p := len(g.shards)
	e := &combinedEntry{epochs: make([]uint64, p), snaps: make([]*core.QuerySnapshot, p)}
	ns := make([]int64, p)
	err := fanout(p, 0, func(i int) error {
		ok := false
		e.epochs[i] = g.withShard(i, func(s core.Summary) {
			var ss core.Snapshotter
			if ss, ok = s.(core.Snapshotter); ok {
				ns[i] = s.Count()
				e.snaps[i] = core.BuildQuerySnapshot(ss)
			}
		})
		if !ok {
			return errNoSnapshot
		}
		return nil
	})
	if err != nil {
		return nil
	}
	for _, n := range ns {
		e.n += n
	}
	return e
}

// errNoSnapshot reports a shard without an exact flattening.
var errNoSnapshot = errors.New("sharded: shard has no exact snapshot")

// baseRank answers a combined rank query from the live-shard artifact.
func (e *combinedEntry) baseRank(x uint64) int64 {
	if e.qs != nil {
		return e.qs.Rank(x)
	}
	if e.sum != nil {
		return e.sum.Rank(x)
	}
	var r int64
	for _, qs := range e.snaps {
		r += qs.Rank(x)
	}
	return r
}

// rank answers a combined rank query from the fold, frozen components
// included.
func (e *combinedEntry) rank(x uint64) int64 {
	r := e.baseRank(x)
	for _, c := range e.comps {
		r += c.rank(x)
	}
	return r
}

// rankBatch answers a batch of combined rank queries from the fold.
func (e *combinedEntry) rankBatch(xs []uint64) []int64 {
	if len(e.comps) == 0 {
		if e.qs != nil {
			return e.qs.RankBatch(xs)
		}
		if e.sum != nil {
			return core.RankBatch(e.sum, xs)
		}
	}
	return e.appendRankBatch(make([]int64, 0, len(xs)), xs)
}

// appendRankBatch sums the fold's ranks (components included) into dst
// (reusing its capacity), for callers on the zero-allocation descent
// path.
func (e *combinedEntry) appendRankBatch(dst []int64, xs []uint64) []int64 {
	for range xs {
		dst = append(dst, 0)
	}
	if e.qs != nil || e.sum != nil {
		for i, x := range xs {
			dst[i] += e.baseRank(x)
		}
	} else {
		for _, qs := range e.snaps {
			for i, x := range xs {
				dst[i] += qs.Rank(x)
			}
		}
	}
	for _, c := range e.comps {
		for i, x := range xs {
			dst[i] += c.rank(x)
		}
	}
	return dst
}

// quantile answers a combined quantile query from the fold. With frozen
// components in play the artifact only covers the live shards, so the
// answer comes from the rank descent over the combined estimate.
func (e *combinedEntry) quantile(phi float64) uint64 {
	if len(e.comps) == 0 {
		if e.qs != nil {
			return e.qs.Quantile(phi)
		}
		if e.sum != nil {
			return e.sum.Quantile(phi)
		}
	}
	return rankQuantile(e.n, e.rank, phi)
}

// quantileBatch answers a batch of combined quantile queries from the
// fold.
func (e *combinedEntry) quantileBatch(phis []float64) []uint64 {
	if len(e.comps) == 0 {
		if e.qs != nil {
			return e.qs.QuantileBatch(phis)
		}
		if e.sum != nil {
			return core.QuantileBatch(e.sum, phis)
		}
	}
	// The descent probes rankBatch once per bit level; routing the
	// probes through one pooled buffer turns 64 per-level allocations
	// into zero. The buffer never escapes: appendRankBatch's result is
	// consumed inside rankQuantileBatch before the next probe.
	bp := rankBufPool.Get().(*[]int64)
	buf := *bp
	out := rankQuantileBatch(e.n, func(xs []uint64) []int64 {
		buf = e.appendRankBatch(buf[:0], xs)
		return buf
	}, phis)
	*bp = buf
	rankBufPool.Put(bp)
	return out
}

// rankBufPool recycles the descent's per-level rank buffer across
// quantileBatch calls (Get and Put in the same function — see lint rule
// SQ009).
var rankBufPool = sync.Pool{New: func() any { return new([]int64) }}

// rankQuantile inverts a summed rank estimate by a bitwise descent: the
// largest v with R(v) ≤ target. Under the core contract R(v) estimates
// #{y < v}, so a value v occupies the rank span [R(v), R(v+1)) and the
// descent lands on the value whose span holds the target — including a
// heavy duplicate atom, whose span absorbs every target inside it. R
// tracks the true (monotone) combined rank within the summed per-shard
// estimate error E, so the result's rank interval intersects
// [target−E, target+E] — for the GK family E ≤ Σᵢ(2εᵢnᵢ+1) ≤ 2εn +
// parts, and in practice far tighter. The descent is only as sound as
// the contract: a summary that counts x's own occurrences into Rank(x)
// shifts every atom's span and drags the answer below it (the
// duplicate-atom regression tests pin this).
func rankQuantile(n int64, rank func(uint64) int64, phi float64) uint64 {
	if n <= 0 {
		panic(core.ErrEmpty)
	}
	target := core.TargetRank(phi, n)
	var v uint64
	for bit := 63; bit >= 0; bit-- {
		cand := v | uint64(1)<<bit
		// Accept the bit iff rank(cand) <= target, branch-free: ranks
		// and targets are in [0, n], so the difference cannot overflow
		// and its sign bit after the -1 is exactly the comparison.
		keep := uint64((rank(cand) - target - 1) >> 63)
		v |= (uint64(1) << bit) & keep
	}
	return v
}

// rankQuantileBatch runs k descents in lockstep — one rankBatch probe
// set per bit level instead of one rank probe per (query, level) — so a
// batch over live shards costs 64 lock sweeps total rather than 64 per
// fraction. Each query's probe sequence is exactly its solo descent, so
// results are byte-identical to per-φ rankQuantile. Like the snapshot
// and summary paths, it validates every fraction first.
func rankQuantileBatch(n int64, rankBatch func([]uint64) []int64, phis []float64) []uint64 {
	for _, phi := range phis {
		core.CheckPhi(phi)
	}
	if n <= 0 {
		panic(core.ErrEmpty)
	}
	k := len(phis)
	sp := descentPool.Get().(*descentScratch)
	targets, cands := sp.targets, sp.cands
	if cap(targets) < k {
		targets = make([]int64, k)
	}
	if cap(cands) < k {
		cands = make([]uint64, k)
	}
	targets, cands = targets[:k], cands[:k]
	for i, phi := range phis {
		targets[i] = core.TargetRank(phi, n)
	}
	vs := make([]uint64, k) // escapes: this is the result
	for bit := 63; bit >= 0; bit-- {
		for i, v := range vs {
			cands[i] = v | uint64(1)<<bit
		}
		rs := rankBatch(cands)
		for i := range vs {
			// Same branch-free accept as rankQuantile's solo descent.
			keep := uint64((rs[i] - targets[i] - 1) >> 63)
			vs[i] |= (cands[i] ^ vs[i]) & keep
		}
	}
	sp.targets, sp.cands = targets, cands
	descentPool.Put(sp)
	return vs
}

// descentScratch holds rankQuantileBatch's per-call probe arrays; the
// pool keeps repeated batch extractions allocation-free apart from the
// returned values.
type descentScratch struct {
	targets []int64
	cands   []uint64
}

var descentPool = sync.Pool{New: func() any { return new(descentScratch) }}
