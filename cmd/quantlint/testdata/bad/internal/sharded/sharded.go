// Package sharded trips both halves of SQ014: hotShard carries a
// mutex and an atomic but no blank pad field while being stored by
// value in a slice (adjacent elements false-share cache lines), and
// ops is a package-level atomic counter every writer would contend on.
// The generic genShard and pairShard are the same unpadded shape named
// through an index and an index-list expression. The padded coldShard
// shape and the pointer slice stay silent.
package sharded

import (
	"sync"
	"sync/atomic"
)

// ops is package-level shared hot state: flagged.
var ops atomic.Uint64

// hotShard has hot shared mutable fields and no pad: []hotShard below
// makes it a finding.
type hotShard struct {
	mu    sync.Mutex
	count atomic.Int64
	buf   []uint64
}

// coldShard carries the same hot fields but pads to a line multiple,
// so slicing it is fine.
type coldShard struct {
	mu    sync.Mutex
	count atomic.Int64
	_     [112]byte
}

// genShard is hotShard's generic shape: []genShard[uint64] below names
// it through an index expression, and fires all the same.
type genShard[T any] struct {
	mu  sync.Mutex
	val T
}

// pairShard is the two-parameter shape: []pairShard[uint64, int64]
// names it through an index-list expression.
type pairShard[K comparable, V any] struct {
	mu  sync.Mutex
	key K
	val V
}

// registry demonstrates the flagged and the exempt container shapes:
// the value slice over the unpadded struct fires; the padded value
// slice and the pointer slice (separate allocations) do not.
type registry struct {
	hot     []hotShard
	cold    []coldShard
	pointed []*hotShard
	gen     []genShard[uint64]
	pair    []pairShard[uint64, int64]
}

// touch keeps every declaration referenced without tripping the
// hot-path rules (no Update/Insert/Add naming, no allocation in loops).
func touch(r *registry) int {
	ops.Store(uint64(len(r.hot)))
	return len(r.cold) + len(r.pointed) + len(r.gen) + len(r.pair)
}
