package gk

import "streamquantiles/internal/core"

// Array is the GKArray variant introduced by the journal version of the
// paper (§2.1.2): tuples live in a flat sorted array; arriving elements
// collect in a buffer of size Θ(|L|) and are merged into the array in one
// sorted sweep when the buffer fills. During the merge each tuple —
// pre-existing or new — is dropped when removable, exactly the
// GKAdaptive rule, but executed with sort+merge instead of per-element
// tree and heap searches, which is substantially more cache-friendly.
type Array struct {
	eps    float64
	n      int64
	tuples tcols
	spare  tcols // merge destination, swapped with tuples after each flush
	buf    []uint64
}

// minBuffer bounds the batch size from below so tiny summaries still
// amortize their sorting cost.
const minBuffer = 64

// NewArray returns an empty GKArray summary with error parameter eps.
func NewArray(eps float64) *Array {
	checkEps(eps)
	return &Array{
		eps: eps,
		buf: make([]uint64, 0, minBuffer),
	}
}

// Eps returns the summary's error parameter.
func (a *Array) Eps() float64 { return a.eps }

// Count implements core.Summary.
func (a *Array) Count() int64 { return a.n }

// TupleCount reports |L| after flushing pending elements.
func (a *Array) TupleCount() int {
	a.Flush()
	return a.tuples.len()
}

// Update implements core.CashRegister.
func (a *Array) Update(x uint64) {
	a.n++
	a.buf = append(a.buf, x)
	if len(a.buf) == cap(a.buf) {
		a.flush()
	}
}

// Flush merges any buffered elements into the tuple array. Queries call
// it implicitly; it is exported for deterministic space measurement.
func (a *Array) Flush() {
	if len(a.buf) > 0 {
		a.flush()
	}
}

func (a *Array) flush() {
	// The merge applies the removability rule g_i + g_{i+1} + Δ_{i+1} ≤
	// ⌊2εn⌋ through a one-step lookahead (see mergeSorted); the buffer
	// is then resized to Θ(|L|) for the next batch.
	mergeBuffer(&a.tuples, &a.spare, a.buf, threshold(a.eps, a.n))
	a.buf = resizeBuffer(a.buf, a.tuples.len())
}

// Quantile implements core.Summary. It flushes pending elements first.
func (a *Array) Quantile(phi float64) uint64 {
	a.Flush()
	return queryQuantile(a.seq, a.n, phi)
}

// QuantileBatch implements core.QuantileBatcher.
func (a *Array) QuantileBatch(phis []float64) []uint64 {
	a.Flush()
	return queryQuantiles(a.seq, a.n, phis)
}

// RankBatch implements core.QuantileBatcher.
func (a *Array) RankBatch(xs []uint64) []int64 {
	a.Flush()
	return queryRanks(a.seq, xs)
}

// AppendQuerySnapshot implements core.Snapshotter.
func (a *Array) AppendQuerySnapshot(qs *core.QuerySnapshot) {
	a.Flush()
	appendQuerySnapshot(a.seq, a.n, qs)
}

// Rank implements core.Summary. It flushes pending elements first.
func (a *Array) Rank(x uint64) int64 {
	a.Flush()
	return queryRank(a.seq, x)
}

// SpaceBytes implements core.Summary: 3 words per tuple (live columns
// plus the retained merge double-buffer) plus the buffer capacity plus
// scalars. Buffers are charged at capacity because they are
// pre-allocated.
func (a *Array) SpaceBytes() int64 {
	words := int64(a.tuples.len()+cap(a.spare.vals))*tupleWords + int64(cap(a.buf)) + 4
	return words * core.WordBytes
}

func (a *Array) seq(yield func(t tuple) bool) {
	a.tuples.seq(yield)
}
