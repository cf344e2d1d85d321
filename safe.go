package streamquantiles

import (
	"streamquantiles/internal/core"
	"streamquantiles/internal/sharded"
)

// The summaries in this library are single-writer structures, as in the
// paper's streaming model. SafeCashRegister and SafeTurnstile wrap them
// for concurrent use as the one-shard case of the sharded containers
// (internal/sharded's One): one mutex guards the summary — every write,
// and every query that must read the live summary, takes it — and one
// epoch cache, shared with the sharded containers, serves queries.
// Because every access is exclusive, summaries that amortize buffered
// work into their query methods (Flusher: GKArray, GKBiased and QDigest
// flush pending elements when queried) need no special lock mode.
//
// When the wrapped summary has an exact query flattening
// (core.Snapshotter: the GK tuple families, QDigest, and the sampling
// families), every write bumps the shard's epoch under the lock, and
// queries between writes answer from the cached immutable snapshot
// without taking any lock at all — repeated queries on a quiet summary
// are wait-free binary searches. Snapshots are exact, so answers are
// byte-identical to querying the live summary; families without an
// exact flattening (the dyadic sketches and GKBiased) answer from the
// live summary under the lock, so their concurrent queries serialize.

// Flusher is implemented by summaries whose query methods first merge
// buffered updates into the main structure. For these types a read
// lock is NOT sufficient for queries.
type Flusher interface {
	// Flush merges any buffered elements into the main structure.
	Flush()
}

// The one-shard cores the wrappers embed: unexported names, so the
// embedded field stays unexported while One's query, codec and Retarget
// methods are promoted.
type (
	cashOne = sharded.One[CashRegister]
	turnOne = sharded.One[Turnstile]
)

// SafeCashRegister is a goroutine-safe wrapper around a CashRegister.
type SafeCashRegister struct {
	cashOne
}

// NewSafeCashRegister wraps s. The wrapped summary must not be used
// directly afterwards.
func NewSafeCashRegister(s CashRegister) *SafeCashRegister {
	c := &SafeCashRegister{}
	sharded.Init(&c.cashOne, s)
	return c
}

// Update observes one element.
func (c *SafeCashRegister) Update(x uint64) {
	sharded.Write(&c.cashOne, func(s CashRegister) { s.Update(x) })
}

// UpdateBatch observes a batch of elements under one lock acquisition,
// through the summary's native batch path when it has one.
func (c *SafeCashRegister) UpdateBatch(xs []uint64) {
	sharded.Write(&c.cashOne, func(s CashRegister) { core.UpdateBatch(s, xs) })
}

// Checkpoint snapshots the summary and durably publishes the snapshot
// as the next generation in ck's directory. Only the in-memory encode
// holds the summary's lock; it is released before CRC framing, fsync
// and rename — and any transient-error retries — so updates flow while
// the bytes hit disk. When the wrapped summary is a sharded container
// the encode itself is parallel and per-shard: each worker stops only
// its own shard for that shard's marshal, never the whole container
// (see ShardedCashRegister's MarshalBinary). Concurrent Checkpoint
// calls on one Checkpointer are not allowed — run one checkpointing
// goroutine per directory.
func (c *SafeCashRegister) Checkpoint(ck *Checkpointer, label string) (uint64, error) {
	return SaveCheckpoint(ck, label, c)
}

// SafeTurnstile is a goroutine-safe wrapper around a Turnstile summary.
type SafeTurnstile struct {
	turnOne
}

// NewSafeTurnstile wraps s. The wrapped summary must not be used
// directly afterwards.
func NewSafeTurnstile(s Turnstile) *SafeTurnstile {
	c := &SafeTurnstile{}
	sharded.Init(&c.turnOne, s)
	return c
}

// Insert adds one occurrence of x.
func (c *SafeTurnstile) Insert(x uint64) {
	sharded.Write(&c.turnOne, func(s Turnstile) { s.Insert(x) })
}

// Delete removes one occurrence of x.
func (c *SafeTurnstile) Delete(x uint64) {
	sharded.Write(&c.turnOne, func(s Turnstile) { s.Delete(x) })
}

// InsertBatch adds one occurrence of every element of xs under one lock
// acquisition, through the summary's native batch path when it has one.
func (c *SafeTurnstile) InsertBatch(xs []uint64) {
	sharded.Write(&c.turnOne, func(s Turnstile) { core.InsertBatch(s, xs) })
}

// DeleteBatch removes one occurrence of every element of xs under one
// lock acquisition.
func (c *SafeTurnstile) DeleteBatch(xs []uint64) {
	sharded.Write(&c.turnOne, func(s Turnstile) { core.DeleteBatch(s, xs) })
}

// Checkpoint is SafeCashRegister.Checkpoint for the turnstile wrapper.
func (c *SafeTurnstile) Checkpoint(ck *Checkpointer, label string) (uint64, error) {
	return SaveCheckpoint(ck, label, c)
}

// NewSafeShardedCashRegister is the concurrent-ingestion construction
// for write-heavy workloads: where the Safe wrappers serialize all
// writers behind one lock, a sharded summary gives each of P shards its
// own lock, so P writers proceed in parallel. The result is already
// goroutine-safe — there is no wrapper to add — and supports online
// Reshard/Retarget. For maximum write throughput give each ingesting
// goroutine its own handle via AcquireWriter: handles buffer locally
// and touch no shared state between flushes.
func NewSafeShardedCashRegister(p int, fresh func() CashRegister) (*ShardedCashRegister, error) {
	return NewShardedCashRegister(p, fresh)
}

// NewSafeShardedTurnstile is the turnstile counterpart of
// NewSafeShardedCashRegister.
func NewSafeShardedTurnstile(p int, fresh func() Turnstile) (*ShardedTurnstile, error) {
	return NewShardedTurnstile(p, fresh)
}
