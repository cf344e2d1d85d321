package sharded

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"streamquantiles/internal/core"
)

// The concurrency core shared by both stream models. CashRegister and
// Turnstile each embed one base, instantiated with their summary
// interface, and keep only what differs per model: routing (round-robin
// or affinity slots for insert-only streams, value affinity under
// deletions), the elastic policies (GK adoption and freezing, the
// mergeable-only turnstile Reshard, the probe-gated turnstile Retarget)
// and the invariant checks. Everything else — the shard slots, the
// generation swap, the query paths and the codec — exists once, here and
// in query.go, elastic.go and codec.go.
//
// The generic code never calls a summary method on the per-element or
// per-flush write path — a method call on a type-parameter value whose
// type argument is an interface converts the value at run time. Instead
// lockLive hands the model's own write method a locked shard whose
// summary has the model's static interface type, so an Update or Insert
// is one plain interface call.

// invariantChecker is implemented by every registered summary (the
// quantlint SQ005 contract); shards that provide it are deep-checked by
// Invariants.
type invariantChecker interface{ Invariants() error }

// cacheLine is the placement granularity for hot shared state: 128
// bytes — two 64-byte lines — so the spatial prefetcher's paired line
// loads cannot re-introduce false sharing between neighbours either.
// Shard structs living in a generation's []shard[S] pad to a multiple
// of it (the SQ014 lint holds the discipline, a Sizeof test pins the
// arithmetic): without the padding, shard i's lock word and shard i+1's
// summary header share a line, and P writers on P cores ping that line
// between caches on every update even though they never touch each
// other's shard.
const cacheLine = 128

// shard pads one summary's lock onto its own state; shards are only
// ever touched under their own mutex. epoch counts writes: bumped under
// mu before every mutation, loadable without it (see query.go).
type shard[S core.Summary] struct {
	mu      sync.Mutex
	s       S    // guarded by mu
	retired bool // guarded by mu
	epoch   atomic.Uint64
	// The live fields above occupy 40 bytes on 64-bit (S is always an
	// interface type); the blank tail rounds the struct up to cacheLine
	// so adjacent shards in the generation slice never share a line
	// (TestShardStructsPadded).
	_ [cacheLine - 40]byte
}

// retire marks the shard retired under its own mutex and takes its
// summary; a writer blocked on the mutex wakes to the flag and
// re-routes.
func (sh *shard[S]) retire() S {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.s
	var none S
	sh.s = none
	sh.retired = true
	sh.epoch.Add(1)
	return s
}

// gen is one immutable shard topology: the shard array, the factory
// that populated it, and the factory's probed fold capabilities. A
// generation's fields never change after publication; elastic
// operations build a successor and swap the container's pointer.
type gen[S core.Summary] struct {
	id     uint64
	shards []shard[S]
	fresh  func() S
	caps   foldCaps
	eps    float64 // factory's reported error budget; 0 when unknown
}

func newGen[S core.Summary](id uint64, p int, fresh func() S, caps foldCaps) *gen[S] {
	g := &gen[S]{id: id, shards: make([]shard[S], p), fresh: fresh, caps: caps}
	for i := range g.shards {
		g.shards[i].s = fresh()
	}
	if er, ok := any(g.shards[0].s).(epsReporter); ok {
		g.eps = er.Eps()
	}
	return g
}

// withShard runs fn under shard i's lock and returns the epoch observed
// while holding it.
func (g *gen[S]) withShard(i int, fn func(s core.Summary)) uint64 {
	sh := &g.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fn(sh.s)
	return sh.epoch.Load()
}

// base is the state and the model-independent methods of a sharded
// container. All methods are safe for concurrent use.
type base[S core.Summary] struct {
	// topo is the topology lock: queries that need a stable shard set
	// (fold rebuilds, aggregates, the codec) hold it shared; Reshard,
	// Retarget and UnmarshalBinary hold it exclusively. Writers never
	// touch it — they re-route on the retired flag instead.
	topo sync.RWMutex
	gen  atomic.Pointer[gen[S]]
	ret  retiredSet
	q    queryCache

	// freezes is set for insert-only streams: a retired summary that
	// cannot be folded into its successor is kept as a frozen rank
	// component. Under deletions freezing is never an option (a frozen
	// component could not be decremented again), so a turnstile drain
	// that cannot fold fails, and a decoded turnstile blob carrying
	// components is corrupt.
	freezes bool

	// drainObs and ckptObs, when set, bracket each retired shard's drain
	// during an elastic operation and each live shard's marshal during a
	// checkpoint save (see SetDrainObserver, SetCheckpointObserver).
	drainObs atomic.Pointer[DrainObserver]
	ckptObs  atomic.Pointer[DrainObserver]
}

// init validates p, probes the factory and publishes generation 0.
func (b *base[S]) init(p int, fresh func() S, freezes bool) error {
	if err := checkShards(p); err != nil {
		return err
	}
	b.freezes = freezes
	b.gen.Store(newGen(0, p, fresh, probeFactory(fresh)))
	return nil
}

// probeFactory is probeCaps over a typed factory.
func probeFactory[S core.Summary](fresh func() S) foldCaps {
	return probeCaps(func() core.Summary { return fresh() })
}

// checkShards validates a shard count, shared by constructors and
// Reshard.
func checkShards(p int) error {
	if p < 1 {
		return fmt.Errorf("sharded: shard count %d < 1", p)
	}
	return nil
}

// Shards returns the current shard count P.
func (b *base[S]) Shards() int { return len(b.gen.Load().shards) }

// Generation returns the topology generation: 0 at construction,
// bumped by every Reshard/Retarget/decode.
func (b *base[S]) Generation() uint64 { return b.gen.Load().id }

// Mergeable reports whether queries fold the shards into one merged
// summary (the family merges and the factory's instances are
// merge-compatible), probed once per factory — a factory drawing random
// dyadic seeds is detected here instead of failing inside every query.
func (b *base[S]) Mergeable() bool { return b.gen.Load().caps.mergeable }

// current reports, without taking a lock, whether nothing observable
// changed since e was folded: same topology generation, same retired
// components, and no shard written. The epoch vector is per-shard
// consistent (each entry was read under its shard's lock at the moment
// that shard was folded), so a full match means the fold equals one
// performed now. Generations are immutable, so a matching id
// guarantees the epoch vector indexes the same shard array it was
// built from.
func (b *base[S]) current(e *combinedEntry) bool {
	g := b.gen.Load()
	if g.id != e.genID || b.ret.ver.Load() != e.retVer {
		return false
	}
	for i, ep := range e.epochs {
		if g.shards[i].epoch.Load() != ep {
			return false
		}
	}
	return true
}

// topoRLock takes the topology read lock and hands the caller the
// matching unlock — the fold rebuild in query.go holds it for the
// duration of the rebuild via `defer b.topoRLock()()`.
//
// locks topo
func (b *base[S]) topoRLock() func() {
	b.topo.RLock()
	return b.topo.RUnlock
}

// lockLive returns the shard owning slot in the live generation, locked
// and with its write epoch already bumped; the caller applies one write
// to its summary and unlocks it. A shard caught mid-retire re-routes
// against the successor generation, so the loop runs at most for the
// duration of one topology swap, and a write lands exactly once, on a
// live shard — count conservation across a reshard is structural.
//
// locks result.mu
func (b *base[S]) lockLive(slot uint64) *shard[S] {
	for {
		g := b.gen.Load()
		sh := &g.shards[slot%uint64(len(g.shards))]
		sh.mu.Lock()
		if !sh.retired {
			sh.epoch.Add(1)
			return sh
		}
		sh.mu.Unlock()
		runtime.Gosched()
	}
}

// Count implements core.Summary: live shards plus frozen components.
func (b *base[S]) Count() int64 {
	b.topo.RLock()
	defer b.topo.RUnlock()
	return b.countLocked()
}

// countLocked sums the shard and component counts; the caller holds the
// topology read lock.
func (b *base[S]) countLocked() int64 {
	g := b.gen.Load()
	var n int64
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		n += sh.s.Count()
		sh.mu.Unlock()
	}
	return n + b.ret.count()
}

// Rank implements core.Summary. Mergeable families answer from the
// (cached) merged summary — for the linear sketches, exactly the
// unsharded estimate. Otherwise ranks are additive across a partition:
// the estimate is the sum of per-shard estimates and its error the sum
// of per-shard estimate errors — for the GK family, whose midpoint
// estimator is uncertain by up to the ⌊2εᵢnᵢ⌋ capacity of the gap a
// probe falls into plus its −1 bias, Σᵢ(2εᵢnᵢ+1) ≤ 2εn + parts, where
// parts counts live shards plus frozen components (Components).
func (b *base[S]) Rank(x uint64) int64 {
	if e := b.entry(); e != nil {
		return e.rank(x)
	}
	b.topo.RLock()
	defer b.topo.RUnlock()
	return b.summedRankLocked(x)
}

// RankBatch implements core.QuantileBatcher.
func (b *base[S]) RankBatch(xs []uint64) []int64 {
	if e := b.entry(); e != nil {
		return e.rankBatch(xs)
	}
	b.topo.RLock()
	defer b.topo.RUnlock()
	return b.summedRankBatchLocked(xs)
}

// summedRankLocked is the additive estimate over the live shards and
// frozen components; the caller holds the topology read lock.
func (b *base[S]) summedRankLocked(x uint64) int64 {
	g := b.gen.Load()
	var r int64
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		r += sh.s.Rank(x)
		sh.mu.Unlock()
	}
	return r + b.ret.rank(x)
}

// summedRankBatchLocked is the batch form of summedRankLocked: one lock
// acquisition and one native RankBatch sweep per shard for the whole
// probe set.
func (b *base[S]) summedRankBatchLocked(xs []uint64) []int64 {
	g := b.gen.Load()
	out := make([]int64, len(xs))
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		rs := core.RankBatch(sh.s, xs)
		sh.mu.Unlock()
		for j, r := range rs {
			out[j] += r
		}
	}
	b.ret.addRanks(out, xs)
	return out
}

// Quantile implements core.Summary within the composed ε bound.
func (b *base[S]) Quantile(phi float64) uint64 {
	core.CheckPhi(phi)
	if e := b.entry(); e != nil {
		return e.quantile(phi)
	}
	b.topo.RLock()
	defer b.topo.RUnlock()
	if sh := b.loneLocked(); sh != nil {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.s.Quantile(phi)
	}
	return rankQuantile(b.countLocked(), b.summedRankLocked, phi)
}

// QuantileBatch implements core.QuantileBatcher: one cached fold (or
// one lockstep rank-descent over all fractions) answers the whole
// batch. Whichever answers validates the fractions: a snapshot, a
// summary or the descent.
func (b *base[S]) QuantileBatch(phis []float64) []uint64 {
	if e := b.entry(); e != nil {
		return e.quantileBatch(phis)
	}
	b.topo.RLock()
	defer b.topo.RUnlock()
	if sh := b.loneLocked(); sh != nil {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return core.QuantileBatch(sh.s, phis)
	}
	return rankQuantileBatch(b.countLocked(), b.summedRankBatchLocked, phis)
}

// loneLocked returns the live generation's only shard when there is one
// shard and no frozen component: with no snapshot to answer from, such
// a container queries that shard's live summary, so it still answers
// exactly like it (the summed rank paths already do: a sum of one). The
// caller holds the topology read lock.
func (b *base[S]) loneLocked() *shard[S] {
	if g := b.gen.Load(); len(g.shards) == 1 && len(b.ret.comps) == 0 {
		return &g.shards[0]
	}
	return nil
}

// SpaceBytes implements core.Summary: the sum over shards and frozen
// components.
func (b *base[S]) SpaceBytes() int64 {
	b.topo.RLock()
	defer b.topo.RUnlock()
	g := b.gen.Load()
	var n int64
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		n += sh.s.SpaceBytes()
		sh.mu.Unlock()
	}
	return n + b.ret.spaceBytes()
}

// shardInvariantsLocked deep-checks every shard of g that supports it;
// the caller holds the topology read lock.
func shardInvariantsLocked[S core.Summary](g *gen[S]) error {
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		err := checkInvariants(sh.s)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("sharded: shard %d: %w", i, err)
		}
	}
	return nil
}

// checkInvariants runs s's sanitizer when it has one.
func checkInvariants(s any) error {
	if ic, ok := s.(invariantChecker); ok {
		return ic.Invariants()
	}
	return nil
}
