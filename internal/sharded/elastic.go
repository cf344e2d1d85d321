package sharded

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"streamquantiles/internal/core"
)

// Elastic operations: online re-sharding and re-ε rebuild.
//
// Both follow the same epoch-swap protocol:
//
//  1. Take the topology write lock — queries that fold or aggregate
//     wait, writers do not (they hold no topology lock).
//  2. Build the successor generation and publish it with one atomic
//     store. From this instant every new write routes to the new shard
//     set.
//  3. Retire each old shard under its own mutex (set the flag, take the
//     summary). A writer blocked on that mutex wakes, sees the flag,
//     and re-routes — ingestion is stalled at most for one shard's
//     drain, never for the whole operation.
//  4. Drain the taken summaries into the successor: MERGE for mergeable
//     families, adoption (pointer move) for the GK family on reshard,
//     RetargetMerge for budget-widening re-ε, and freezing into a
//     query-time rank component when nothing else preserves the data.
//
// ε-budget accounting: a MERGE preserves max(ε₁, ε₂) (the mergeable-
// summary rule the SQ012 lint polices), RetargetMerge widens the
// receiver to that same max, and a frozen component keeps its own ε and
// contributes its own ±εᵢnᵢ to the additive rank combination. EpsBudget
// reports the max over the live factory and all frozen components, so
// the composed error of any query is ≤ 2·EpsBudget()·n + Components()
// for rank-combined families and ≤ EpsBudget()·n for merged ones.

// retiredComp is a summary frozen by an elastic operation: it no longer
// receives writes and participates in queries by additive rank. The
// snapshot is built eagerly at freeze time when the family supports it,
// making later queries lock-free; otherwise queries lock the component
// (GKBiased's reads flush internally, so they mutate).
type retiredComp struct {
	mu  sync.Mutex
	s   core.Summary // guarded by mu
	qs  *core.QuerySnapshot
	n   int64
	eps float64 // the component's own error budget; 0 when unknown
}

// newRetiredComp freezes s. The caller must be the only owner of s (it
// was taken from a retired shard under that shard's mutex).
func newRetiredComp(s core.Summary) *retiredComp {
	c := &retiredComp{s: s, n: s.Count()}
	if ss, ok := s.(core.Snapshotter); ok {
		c.qs = core.BuildQuerySnapshot(ss)
	}
	if er, ok := s.(epsReporter); ok {
		c.eps = er.Eps()
	}
	return c
}

func (c *retiredComp) rank(x uint64) int64 {
	if c.qs != nil {
		return c.qs.Rank(x)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Rank(x)
}

func (c *retiredComp) spaceBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.SpaceBytes()
}

func (c *retiredComp) invariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return checkInvariants(c.s)
}

// retiredSet collects a container's frozen components. comps is only
// mutated under the container's topology write lock and only read under
// its read lock; ver is bumped on every mutation so the lock-free query
// cache can validate without the lock.
type retiredSet struct {
	ver   atomic.Uint64
	comps []*retiredComp
}

func (r *retiredSet) add(c *retiredComp) {
	r.comps = append(r.comps, c)
	r.ver.Add(1)
}

func (r *retiredSet) count() int64 {
	var n int64
	for _, c := range r.comps {
		n += c.n
	}
	return n
}

func (r *retiredSet) rank(x uint64) int64 {
	var n int64
	for _, c := range r.comps {
		n += c.rank(x)
	}
	return n
}

func (r *retiredSet) addRanks(dst []int64, xs []uint64) {
	for _, c := range r.comps {
		for i, x := range xs {
			dst[i] += c.rank(x)
		}
	}
}

func (r *retiredSet) spaceBytes() int64 {
	var b int64
	for _, c := range r.comps {
		b += c.spaceBytes()
	}
	return b
}

func (r *retiredSet) invariants() error {
	for i, c := range r.comps {
		if err := c.invariants(); err != nil {
			return fmt.Errorf("sharded: retired component %d: %w", i, err)
		}
	}
	return nil
}

// A DrainObserver brackets one per-shard stall window: it is called
// with the shard's index when the window opens and the returned func
// when it closes. The containers never read the clock themselves — a
// harness that wants stall telemetry supplies it by closing over one
// (cmd/quantstress records drain and checkpoint-marshal durations this
// way and asserts bounds in its soak report). Installed with
// SetDrainObserver, it brackets each retired shard's drain during an
// elastic operation (Reshard, Retarget); it then runs under the
// topology write lock, so it must not call back into the container.
type DrainObserver func(shard int) (done func())

// A CheckpointObserver is the same bracket installed with
// SetCheckpointObserver: it is called just before a live shard's lock is
// taken for its marshal during a checkpoint save, and done just after
// the lock is released — the window a writer routed to that shard can
// stall for.
type CheckpointObserver = DrainObserver

// SetDrainObserver installs obs (nil removes it). Safe to call
// concurrently with elastic operations: the pointer is swapped
// atomically and each drain loads it once per shard.
func (b *base[S]) SetDrainObserver(obs DrainObserver) { setObserver(&b.drainObs, obs) }

// SetCheckpointObserver installs obs (nil removes it). Safe to call
// concurrently with saves; a save in flight may complete with the
// previous observer.
func (b *base[S]) SetCheckpointObserver(obs CheckpointObserver) { setObserver(&b.ckptObs, obs) }

func setObserver(p *atomic.Pointer[DrainObserver], obs DrainObserver) {
	if obs == nil {
		p.Store(nil)
		return
	}
	p.Store(&obs)
}

// observe opens shard i's window on the observer in p, if any, and
// returns the func that closes it.
func observe(p *atomic.Pointer[DrainObserver], i int) func() {
	if obs := p.Load(); obs != nil {
		if done := (*obs)(i); done != nil {
			return done
		}
	}
	return func() {}
}

// drain publishes next, then empties every shard of old into it: shard
// i is retired (writers caught on it re-route to next) and its summary
// folded into next's shard i mod P under that shard's lock, inside the
// drain observer's bracket — so ingestion stalls at most for one
// shard's drain. An empty insert-only summary holds nothing and is
// skipped (under deletions a zero count does not mean empty: after a
// reshard one shard's net count may cancel another's). A summary fold
// refuses is frozen as a rank component when the model allows it;
// otherwise drain carries on with the other shards and reports the
// first refusal.
func (b *base[S]) drain(old, next *gen[S], fold func(dst, s S) error) error {
	b.gen.Store(next)
	var first error
	for i := range old.shards {
		done := observe(&b.drainObs, i)
		if s := old.shards[i].retire(); !b.freezes || s.Count() > 0 {
			dst := &next.shards[i%len(next.shards)]
			dst.mu.Lock()
			dst.epoch.Add(1)
			err := fold(dst.s, s)
			dst.mu.Unlock()
			switch {
			case err == nil:
			case b.freezes:
				b.ret.add(newRetiredComp(s))
			case first == nil:
				first = fmt.Errorf("sharded: drain shard %d: %w", i, err)
			}
		}
		done()
	}
	return first
}

// finerThan reports whether tgt's error budget is strictly tighter than
// old's, when both report one.
func finerThan(tgt, old core.Summary) bool {
	te, ok1 := tgt.(epsReporter)
	oe, ok2 := old.(epsReporter)
	return ok1 && ok2 && te.Eps() < oe.Eps()
}

// mergeOrWiden folds old into tgt: a plain MERGE when the
// configurations match, else a RetargetMerge widening tgt's budget to
// max(ε_tgt, ε_old).
func mergeOrWiden(tgt, old core.Summary) bool {
	if m, ok := tgt.(core.Mergeable); ok && m.MergeSummary(old) == nil {
		return true
	}
	r, ok := tgt.(core.Retargetable)
	return ok && r.RetargetMerge(old) == nil
}

// absorb is mergeOrWiden restricted to folds that preserve both
// budgets' meaning: a finer tgt takes only a plain MERGE. It reports
// false when the data must be frozen instead — merging a coarse old
// summary into a finer target would silently pin the whole sketch at
// the old ε forever; freezing lets new data earn the finer budget while
// the old data keeps its own.
func absorb(tgt, old core.Summary) bool {
	if finerThan(tgt, old) {
		m, ok := tgt.(core.Mergeable)
		return ok && m.MergeSummary(old) == nil
	}
	return mergeOrWiden(tgt, old)
}

// mergeFold is drain's fold for Reshard, which only merges: the
// factory probed mergeable, so a failure means a misbehaving factory.
func mergeFold[S core.Summary](dst, s S) error {
	m, ok := any(dst).(core.Mergeable)
	if !ok {
		return errNotMergeable
	}
	return m.MergeSummary(s)
}

// absorbFold is drain's fold for Retarget (see absorb).
func absorbFold[S core.Summary](dst, s S) error {
	if !absorb(dst, s) {
		return errRefused
	}
	return nil
}

var (
	errNotMergeable = errors.New("summary is not mergeable")
	errRefused      = errors.New("no merge or retarget-merge path preserves both budgets")
)

// Components returns the number of frozen retired components currently
// contributing to queries by additive rank (always 0 for a turnstile).
func (b *base[S]) Components() int {
	b.topo.RLock()
	defer b.topo.RUnlock()
	return len(b.ret.comps)
}

// EpsBudget reports the composed error budget: the max over the live
// factory's ε and every frozen component's ε (0 when the family does
// not report one). Rank-combined queries err by at most
// 2·EpsBudget()·n + Shards() + Components(); merged folds by at most
// EpsBudget()·n.
func (b *base[S]) EpsBudget() float64 {
	b.topo.RLock()
	defer b.topo.RUnlock()
	eps := b.gen.Load().eps
	for _, comp := range b.ret.comps {
		eps = math.Max(eps, comp.eps)
	}
	return eps
}

// ------------------------------------------------------- cash register

// Reshard grows or shrinks the shard count to p without stopping
// ingestion. Mergeable families drain every retired shard into the new
// shard set through MERGE; the GK family adopts the first min(P_old, p)
// summaries in place (a pointer move — no accuracy cost) and freezes
// any surplus as rank components, so a shrink adds at most
// P_old − p components to the additive bound.
func (c *CashRegister) Reshard(p int) error {
	if err := checkShards(p); err != nil {
		return err
	}
	c.topo.Lock()
	defer c.topo.Unlock()
	old := c.gen.Load()
	if p == len(old.shards) {
		return nil
	}
	if old.caps.mergeable {
		// A cash-register drain never fails: what the merge refuses
		// (only a misbehaving factory's summaries) is frozen, not lost.
		_ = c.drain(old, newGen(old.id+1, p, old.fresh, old.caps), mergeFold)
	} else {
		c.reshardByAdoption(old, p)
	}
	c.q.invalidate()
	return nil
}

// reshardByAdoption moves the first min(P_old, p) summaries into the
// successor unchanged and freezes the surplus. The successor is built
// before it is published, so writers spin (seeing retired flags under
// the old generation) only for the duration of the pointer moves.
func (c *CashRegister) reshardByAdoption(old *gen[core.CashRegister], p int) {
	next := &gen[core.CashRegister]{id: old.id + 1, shards: make([]shard[core.CashRegister], p), fresh: old.fresh, caps: old.caps, eps: old.eps}
	keep := min(len(old.shards), p)
	for i := 0; i < keep; i++ {
		done := observe(&c.drainObs, i)
		sh := &next.shards[i]
		sh.mu.Lock()
		sh.s = old.shards[i].retire()
		sh.mu.Unlock()
		done()
	}
	for i := keep; i < p; i++ {
		sh := &next.shards[i]
		sh.mu.Lock()
		sh.s = old.fresh()
		sh.mu.Unlock()
	}
	for i := keep; i < len(old.shards); i++ {
		done := observe(&c.drainObs, i)
		if s := old.shards[i].retire(); s.Count() > 0 {
			c.ret.add(newRetiredComp(s))
		}
		done()
	}
	c.gen.Store(next)
}

// Retarget migrates the container to a new factory — typically the same
// family at a different ε — without stopping ingestion. New writes land
// in fresh summaries at the new budget immediately; each retired
// shard's data is absorbed into its successor when that preserves the
// budget semantics (see absorb) and frozen as a rank component
// otherwise. The shard count is preserved.
func (c *CashRegister) Retarget(fresh func() core.CashRegister) error {
	c.topo.Lock()
	defer c.topo.Unlock()
	old := c.gen.Load()
	// A cash-register drain never fails: what absorb refuses is frozen.
	_ = c.drain(old, newGen(old.id+1, len(old.shards), fresh, probeFactory(fresh)), absorbFold)
	c.q.invalidate()
	return nil
}

// ------------------------------------------------------------ turnstile

// Reshard grows or shrinks the shard count to p without stopping
// ingestion. Only mergeable families can reshard under deletions: the
// re-routed deletions of an element must cancel against its re-merged
// insertions, which the linear sketches guarantee exactly; a frozen
// component could never be decremented again, so non-mergeable
// turnstile families are rejected.
func (t *Turnstile) Reshard(p int) error {
	if err := checkShards(p); err != nil {
		return err
	}
	t.topo.Lock()
	defer t.topo.Unlock()
	old := t.gen.Load()
	if p == len(old.shards) {
		return nil
	}
	if !old.caps.mergeable {
		return fmt.Errorf("sharded: cannot reshard a non-mergeable turnstile family: re-routed deletions must cancel against re-merged insertions")
	}
	defer t.q.invalidate()
	return t.drain(old, newGen(old.id+1, p, old.fresh, old.caps), mergeFold)
}

// Retarget migrates the turnstile container to a new factory. Freezing
// is not an option under deletions, so the operation is gated on a
// probe: the new configuration must absorb the old one (merge or
// retarget-merge) on throwaway instances, or the call fails without
// touching the live topology.
func (t *Turnstile) Retarget(fresh func() core.Turnstile) error {
	t.topo.Lock()
	defer t.topo.Unlock()
	old := t.gen.Load()
	if !absorb(fresh(), old.fresh()) {
		return fmt.Errorf("sharded: turnstile retarget: the new configuration cannot absorb the old (no merge or retarget-merge path), and deletions rule out freezing")
	}
	defer t.q.invalidate()
	return t.drain(old, newGen(old.id+1, len(old.shards), fresh, probeFactory(fresh)), absorbFold)
}
