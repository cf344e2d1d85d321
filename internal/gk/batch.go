package gk

import "slices"

// Batched update paths (core.BatchCashRegister). The buffered variants
// (Array, Biased) accept batches by copying straight into their staging
// buffer — byte-identical to per-item Update, just without the
// per-element interface call and bounds churn. The pointer-based
// variants (Adaptive, Theory) switch strategy for large batches: sort
// the batch once and merge it into the materialized tuple list in one
// sorted sweep — the GKArray treatment of §2.1.2 applied to their tuple
// state — then rebuild the skiplist index in O(|L|) with
// skiplist.Builder. The merged list satisfies GK invariants (1) and (2)
// at the post-batch n (the removability rule g_i + g_{i+1} + Δ_{i+1} ≤
// ⌊2εn⌋ is checked against the final threshold, which upper-bounds
// every intermediate one), so answers stay within εn exactly as for the
// per-item path; the tuple lists themselves may legitimately differ.

// batchMin is the smallest batch for which the sort+merge+rebuild
// strategy beats per-item insertion; below it (or when the batch is
// tiny relative to |L|) the per-item path is used.
const batchMin = 32

// UpdateBatch implements core.BatchCashRegister. State is byte-identical
// to the equivalent sequence of Update calls.
func (a *Array) UpdateBatch(xs []uint64) { bufferBatch(&a.buf, &a.n, xs, a.flush) }

// UpdateBatch implements core.BatchCashRegister. State is byte-identical
// to the equivalent sequence of Update calls.
func (b *Biased) UpdateBatch(xs []uint64) { bufferBatch(&b.buf, &b.n, xs, b.flush) }

// bufferBatch copies xs into a buffered variant's pending buffer in
// chunks that fill it, counting them into *n and calling flush at each
// fill — exactly the per-item Update schedule.
func bufferBatch(buf *[]uint64, n *int64, xs []uint64, flush func()) {
	for len(xs) > 0 {
		take := cap(*buf) - len(*buf)
		if take > len(xs) {
			take = len(xs)
		}
		*buf = append(*buf, xs[:take]...)
		*n += int64(take)
		xs = xs[take:]
		if len(*buf) == cap(*buf) {
			flush()
		}
	}
}

// mergeSorted merges a sorted batch of new elements into a sorted tuple
// column set, applying the GKArray rules at capacity p: new elements
// take Δ = g_succ + Δ_succ − 1 from their successor in the old list (0
// past the maximum), and each merged tuple passes through a one-step
// lookahead that drops it when removable (g_i + g_{i+1} + Δ_{i+1} ≤ p;
// never the first or last tuple). Results are appended to out, which
// the caller supplies reset and with adequate capacity. The sweep reads
// the value column for every comparison and touches the gap/Δ columns
// only at the old list's merge positions — the cache-friendly layout
// the GKArray variant exists for.
func mergeSorted(src *tcols, batch []uint64, p int64, out *tcols) {
	var (
		pending    tuple
		hasPending bool
	)
	emit := func(t tuple) {
		if hasPending {
			if out.len() > 0 && pending.g+t.g+t.del <= p {
				t.g += pending.g
			} else {
				out.push(pending.v, pending.g, pending.del)
			}
		}
		pending = t
		hasPending = true
	}
	ti, bi := 0, 0
	for ti < src.len() || bi < len(batch) {
		if bi < len(batch) && (ti == src.len() || batch[bi] < src.vals[ti]) {
			var del int64
			if ti < src.len() {
				del = src.gaps[ti] + src.dels[ti] - 1
			}
			emit(tuple{v: batch[bi], g: 1, del: del})
			bi++
		} else {
			emit(src.at(ti))
			ti++
		}
	}
	if hasPending {
		out.push(pending.v, pending.g, pending.del)
	}
}

// mergeBuffer sorts the pending buffer and merges it into *tuples at
// capacity p (see mergeSorted) through the spare column set, which then
// swaps with the live one — steady state allocates nothing. The buffered
// variants (Array, Biased) flush through it.
func mergeBuffer(tuples, spare *tcols, buf []uint64, p int64) {
	slices.Sort(buf)
	spare.ensure(tuples.len() + len(buf))
	mergeSorted(tuples, buf, p, spare)
	*tuples, *spare = *spare, *tuples
}

// resizeBuffer empties a flushed pending buffer and gives it capacity
// want (at least minBuffer), reusing the old one when the size holds.
func resizeBuffer(buf []uint64, want int) []uint64 {
	if want < minBuffer {
		want = minBuffer
	}
	if cap(buf) != want {
		return make([]uint64, 0, want)
	}
	return buf[:0]
}

// stageBatch copies xs into the staging buffer (grown geometrically,
// reused across batches) and sorts it.
func stageBatch(buf *[]uint64, xs []uint64) []uint64 {
	if cap(*buf) < len(xs) {
		*buf = make([]uint64, len(xs)+len(xs)/2)
	}
	batch := (*buf)[:len(xs)]
	copy(batch, xs)
	slices.Sort(batch)
	return batch
}

// UpdateBatch implements core.BatchCashRegister. Large batches are
// sorted and merged into the tuple list in one sweep, then the skiplist
// index and the removal-cost heap are rebuilt; answers match the
// per-item path within the same εn bound.
func (a *Adaptive) UpdateBatch(xs []uint64) {
	if len(xs) < batchMin || len(xs)*8 < a.list.Len() {
		for _, x := range xs {
			a.Update(x)
		}
		return
	}
	batch := stageBatch(&a.batchBuf, xs)

	llen := a.list.Len()
	a.tupleScratch.ensure(llen + llen/2)
	for n := a.list.First(); n != nil; n = n.Next() {
		a.tupleScratch.push(n.Key, n.Value.g, n.Value.del)
	}

	a.n += int64(len(batch))
	a.mergeScratch.ensure(llen + len(batch))
	mergeSorted(&a.tupleScratch, batch, threshold(a.eps, a.n), &a.mergeScratch)
	a.rebuild(&a.mergeScratch)
}

// rebuild replaces the skiplist and heap with fresh structures over the
// given tuple columns: an O(|L|) sorted build with skiplist nodes and
// towers drawn from the summary-owned arena (the old list is dead by
// now, so its slabs are recycled), anodes drawn from a reused pool, and
// a bottom-up heapify of every removable (middle) tuple.
func (a *Adaptive) rebuild(ts *tcols) {
	k := ts.len()
	a.arena.Reset()
	b := newAdaptiveIndexArena(uint64(a.n), &a.arena)
	if cap(a.nodePool) < k {
		a.nodePool = make([]anode, k+k/2)
	}
	pool := a.nodePool[:k]
	if cap(a.heap) < k {
		a.heap = make([]*anode, 0, k)
	}
	heap := a.heap[:0]
	for i := 0; i < k; i++ {
		an := &pool[i]
		*an = anode{g: ts.gaps[i], del: ts.dels[i], hidx: -1}
		an.node = b.Append(ts.vals[i], an)
	}
	a.list = b.Finish()
	for i := 1; i+1 < k; i++ {
		an := &pool[i]
		an.cost = an.g + pool[i+1].g + pool[i+1].del
		an.hidx = len(heap)
		heap = append(heap, an)
	}
	a.heap = heap
	for i := len(heap)/2 - 1; i >= 0; i-- {
		a.siftDown(i)
	}
}

// UpdateBatch implements core.BatchCashRegister. Large batches are
// sorted and merged in one sweep — the merge's removability pass doubles
// as a COMPRESS, so the compression countdown restarts afterwards.
func (t *Theory) UpdateBatch(xs []uint64) {
	if len(xs) < batchMin || len(xs)*8 < t.list.Len() {
		for _, x := range xs {
			t.Update(x)
		}
		return
	}
	batch := stageBatch(&t.batchBuf, xs)

	llen := t.list.Len()
	t.tupleScratch.ensure(llen + llen/2)
	for n := t.list.First(); n != nil; n = n.Next() {
		t.tupleScratch.push(n.Key, n.Value.g, n.Value.del)
	}

	t.n += int64(len(batch))
	t.mergeScratch.ensure(llen + len(batch))
	merged := &t.mergeScratch
	mergeSorted(&t.tupleScratch, batch, threshold(t.eps, t.n), merged)

	t.arena.Reset()
	b := newTheoryIndexArena(uint64(t.n), &t.arena)
	k := merged.len()
	if cap(t.nodePool) < k {
		t.nodePool = make([]tnode, k+k/2)
	}
	pool := t.nodePool[:k]
	for i := 0; i < k; i++ {
		pool[i] = tnode{g: merged.gaps[i], del: merged.dels[i]}
		b.Append(merged.vals[i], &pool[i])
	}
	t.list = b.Finish()
	t.sinceCmp = 0
}
