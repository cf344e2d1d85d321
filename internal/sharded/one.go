package sharded

import (
	"fmt"

	"streamquantiles/internal/core"
)

// One is a one-shard container built around an existing summary
// instance instead of a factory: the concurrency core of the Safe
// wrappers. A write locks the lone shard and bumps its epoch like any
// shard write (see Write); queries go through the package's one epoch
// cache, which answers a lone shard from that shard's own exact
// snapshot, or from the live summary under the shard lock (see
// base.entry) — so a One answers exactly like the summary it
// wraps. The base is a named field rather than embedded, keeping the
// container-only methods (Shards, Generation, the observers, the
// sharded codec) off One's method set, which is exactly the query,
// codec and Retarget surface both Safe wrappers share.
type One[S core.Summary] struct{ b base[S] }

// Init makes the zero One o wrap s. The caller must not use s directly
// afterwards.
func Init[S core.Summary](o *One[S], s S) { o.b.gen.Store(newOneGen(0, s)) }

// newOneGen builds a one-shard generation holding s. It has no factory:
// a lone shard is never folded, only snapshotted in place.
func newOneGen[S core.Summary](id uint64, s S) *gen[S] {
	g := &gen[S]{id: id, shards: make([]shard[S], 1)}
	g.shards[0].s = s
	_, g.caps.snapAll = any(s).(core.Snapshotter)
	return g
}

// Write runs fn on the wrapped summary under the shard lock, with the
// write epoch already bumped. fn receives the summary with its static
// interface type, so the write inside it is one plain interface call.
// Init and Write are functions rather than methods so that they stay
// off the method set of the Safe wrappers, which embed a One.
func Write[S core.Summary](o *One[S], fn func(S)) {
	sh := o.b.lockLive(0)
	defer sh.mu.Unlock()
	fn(sh.s)
}

// Quantile returns an estimated φ-quantile of the wrapped summary.
func (o *One[S]) Quantile(phi float64) uint64 { return o.b.Quantile(phi) }

// Quantiles extracts one quantile per fraction (as QuantileBatch).
func (o *One[S]) Quantiles(phis []float64) []uint64 { return o.b.QuantileBatch(phis) }

// QuantileBatch implements core.QuantileBatcher.
func (o *One[S]) QuantileBatch(phis []float64) []uint64 { return o.b.QuantileBatch(phis) }

// Rank returns the estimated rank of x.
func (o *One[S]) Rank(x uint64) int64 { return o.b.Rank(x) }

// RankBatch implements core.QuantileBatcher.
func (o *One[S]) RankBatch(xs []uint64) []int64 { return o.b.RankBatch(xs) }

// Count reports n, the current number of elements.
func (o *One[S]) Count() int64 { return o.b.Count() }

// SpaceBytes reports the summary size (wrapper overhead excluded).
func (o *One[S]) SpaceBytes() int64 { return o.b.SpaceBytes() }

// Snapshot returns the wrapped summary's own binary encoding, taken
// under the shard lock: writers are excluded only for the duration of
// the encode, and queries answering from the cached snapshot not at all.
func (o *One[S]) Snapshot() (blob []byte, err error) {
	defer o.b.topoRLock()()
	o.b.gen.Load().withShard(0, func(s core.Summary) { blob, err = marshalSummaryInto(s, nil) })
	return blob, err
}

// Restore replaces the wrapped summary's state from an encoding
// produced by Snapshot, under the shard lock.
func (o *One[S]) Restore(blob []byte) (err error) {
	Write(o, func(s S) { err = unmarshalSummary(s, blob) })
	return err
}

// MarshalBinary implements encoding.BinaryMarshaler (as Snapshot).
func (o *One[S]) MarshalBinary() ([]byte, error) { return o.Snapshot() }

// UnmarshalBinary implements encoding.BinaryUnmarshaler (as Restore).
func (o *One[S]) UnmarshalBinary(data []byte) error { return o.Restore(data) }

// Retarget migrates to a new summary — typically the same family at a
// different ε — without interrupting readers: the live summary's data
// is absorbed into fresh (see mergeOrWiden) and fresh replaces it in a
// new one-shard generation, so writers caught on the old shard
// re-route and the cached snapshot retires. An old summary with a zero
// count needs no absorb path: it holds no data — for a turnstile sketch
// under the strict-turnstile contract, a zero net count means every
// counter cancelled to zero — so fresh simply replaces it. On error the
// wrapped summary is unchanged. Note the merged budget is
// max(ε_old, ε_new): retargeting a lone summary to a finer ε cannot
// erase the error already committed — use a sharded container when old
// data must keep its own budget separately.
func (o *One[S]) Retarget(fresh S) error {
	o.b.topo.Lock()
	defer o.b.topo.Unlock()
	old := o.b.gen.Load()
	sh := &old.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !mergeOrWiden(fresh, sh.s) && sh.s.Count() != 0 {
		return fmt.Errorf("streamquantiles: %T cannot absorb the live %T data (no merge or retarget-merge path)", fresh, sh.s)
	}
	sh.retired = true
	sh.epoch.Add(1)
	o.b.gen.Store(newOneGen(old.id+1, fresh))
	return nil
}
