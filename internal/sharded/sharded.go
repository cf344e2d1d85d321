// Package sharded scales ingestion across cores by partitioning a
// stream over P independent per-shard summaries, each behind its own
// mutex — there is no global lock anywhere on the write path, so P
// writers on P cores ingest with no coherence traffic beyond their own
// shard.
//
// Correctness rests on the summaries' stream-order insensitivity:
//
//   - Cash-register summaries: any partition of an insert-only stream
//     is itself a valid insert-only stream, so each shard is a valid
//     summary of its share and batches route round-robin.
//   - Turnstile summaries: elements route by value affinity (a mixed
//     hash of the element), so an element's deletions always land on
//     the shard that saw its insertions and every shard individually
//     stays in the strict turnstile model.
//
// Queries combine the shards within the composed error bound
// Σ εᵢnᵢ ≤ εn: summaries implementing core.Mergeable (the dyadic
// linear sketches, KLL, q-digest, MRL99, Random) fold into one
// fresh summary which answers directly; the rest (the GK family)
// combine by additive rank estimation — the summed per-shard rank
// estimate tracks the true combined rank everywhere within the summed
// estimate errors (at most 2εn + P for GK's midpoint estimator, far
// less in practice), and a 64-bit bitwise descent over the value domain
// inverts it.
//
// The fold itself is cached and parallel: mergeability is probed once
// per factory, every shard carries a write epoch, and the combined
// artifact (merged summary or exact per-shard snapshots) is reused
// lock-free across queries until some shard is written again — see
// query.go. A lone shard (P = 1, no frozen component) is not combined
// at all: it answers exactly like its summary, which makes the Safe
// wrappers the one-shard case (One, one.go).
//
// Both containers embed one generic core, base[S] (base.go), holding
// everything that does not depend on the stream model; CashRegister and
// Turnstile add only routing, their elastic policies and Invariants.
//
// # Elasticity
//
// The shard topology is no longer fixed at construction: Reshard
// grows or shrinks P and Retarget migrates the container to a new
// factory (typically a new ε) — both online, without stopping
// ingestion. The topology lives in an immutable generation value
// behind an atomic pointer; an elastic operation builds the successor
// generation, swaps the pointer, and drains the retired shards into it
// (by MERGE for mergeable families, by adoption or by freezing the
// summary as a query-time rank component for the GK family). Writers
// never take a global lock: a writer that catches a shard mid-retire
// simply re-routes against the successor generation, so ingestion is
// blocked at most for one shard drain. Queries that must see a stable
// topology (fold rebuilds, aggregates, the codec) take a read lock
// that elastic operations hold exclusively — see elastic.go and
// DESIGN.md "Elasticity".
package sharded

import (
	"sync/atomic"

	"streamquantiles/internal/core"
)

// mix is the SplitMix64 finalizer: a bijective mix that spreads
// value-affinity routing evenly across shards even for clustered keys.
func mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CashRegister partitions an insert-only stream across P per-shard
// summaries produced by a factory. All methods are safe for concurrent
// use, including the elastic operations in elastic.go.
type CashRegister struct {
	base[core.CashRegister]

	// rr is the round-robin routing cursor of the handle-less write
	// path (Update/UpdateBatch with no Writer). It is the one piece of
	// shared mutable write-path state left, so it sits alone between two
	// blank cache lines: every handle-less write bumps it, and without
	// the isolation those bumps would keep invalidating the line holding
	// gen — which every writer loads per call and every flush re-loads.
	// Writer handles never touch it (each flushes to its own affinity
	// slot), which is what makes them scale.
	_  [cacheLine]byte
	rr atomic.Uint64
	_  [cacheLine - 8]byte

	// wslot hands out writer-handle affinity slots; bumped once per
	// AcquireWriter, never on the per-element path.
	wslot atomic.Uint64
}

// NewCashRegister builds a P-way sharded summary; fresh must return a
// new empty summary per call, all identically configured. An invalid
// shard count surfaces as an error, not a panic.
func NewCashRegister(p int, fresh func() core.CashRegister) (*CashRegister, error) {
	c := &CashRegister{}
	if err := c.init(p, fresh, true); err != nil {
		return nil, err
	}
	return c, nil
}

// Update implements core.CashRegister: the element lands on the next
// shard in round-robin order.
func (c *CashRegister) Update(x uint64) {
	sh := c.lockLive(c.rr.Add(1) - 1)
	sh.s.Update(x)
	sh.mu.Unlock()
}

// UpdateBatch implements core.BatchCashRegister: the whole batch lands
// on one shard (round-robin across calls) under a single lock
// acquisition, through the shard's native batch path when it has one.
func (c *CashRegister) UpdateBatch(xs []uint64) {
	if len(xs) == 0 {
		return
	}
	c.deliver(c.rr.Add(1)-1, xs)
}

// UpdateBatchAffinity routes the whole batch to the shard owning key —
// for callers that partition work upstream (per user, per series) and
// want same-key batches to share a shard.
func (c *CashRegister) UpdateBatchAffinity(key uint64, xs []uint64) {
	if len(xs) == 0 {
		return
	}
	c.deliver(mix(key), xs)
}

// deliver lands one batch on the shard owning slot in the live
// generation, under a single lock acquisition and through the shard's
// native batch path (see lockLive for the re-routing). The batch is
// consumed before deliver returns (summaries copy what they keep), so
// callers may reuse the backing array — writer handles do.
func (c *CashRegister) deliver(slot uint64, xs []uint64) {
	sh := c.lockLive(slot)
	core.UpdateBatch(sh.s, xs)
	sh.mu.Unlock()
}

// Invariants implements the sanitizer contract by deep-checking every
// shard and frozen component that supports it.
func (c *CashRegister) Invariants() error {
	c.topo.RLock()
	defer c.topo.RUnlock()
	if err := shardInvariantsLocked(c.gen.Load()); err != nil {
		return err
	}
	return c.ret.invariants()
}
