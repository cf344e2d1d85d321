package streamquantiles

import (
	"bytes"
	"encoding"
	"sort"
	"testing"

	"streamquantiles/internal/core"
)

// Batch-equivalence properties: for every registered summary, feeding a
// stream through UpdateBatch/InsertBatch must be indistinguishable from
// item-at-a-time feeding — byte-identical encoded state for the
// summaries whose batch path replays the per-item algorithm exactly
// (buffer staging, block sampling, linear sketches), and identical or
// within-ε answers for the two GK variants whose batch path compresses
// across the whole batch at once.

// batchChunkSizes exercises ragged batch boundaries: single elements,
// primes, buffer-sized and page-sized runs.
var batchChunkSizes = []int{1, 3, 7, 64, 97, 1000, 4096}

// feedBatches drives data through u in cycling ragged chunks.
func feedBatches(u func([]uint64), data []uint64) {
	si := 0
	for i := 0; i < len(data); {
		sz := batchChunkSizes[si%len(batchChunkSizes)]
		si++
		if sz > len(data)-i {
			sz = len(data) - i
		}
		u(data[i : i+sz])
		i += sz
	}
}

// batchTestData is the deterministic 16-bit test stream shared by the
// equivalence tests (the universe fits qdigest and the dyadic sketches).
func batchTestData(n int) []uint64 {
	data := make([]uint64, n)
	for i := range data {
		data[i] = (uint64(i) * 2654435761) % (1 << 16)
	}
	return data
}

// cashCodec is a cash-register summary whose state can be compared
// byte-for-byte.
type cashCodec interface {
	CashRegister
	encoding.BinaryMarshaler
	Checkable
}

// turnCodec is the turnstile counterpart.
type turnCodec interface {
	Turnstile
	encoding.BinaryMarshaler
	Checkable
}

// TestUpdateBatchByteIdentical: summaries whose batch path is an exact
// replay of the per-item algorithm (same buffer fills, same compaction
// points, same RNG draw sequence) must marshal to identical bytes.
func TestUpdateBatchByteIdentical(t *testing.T) {
	cases := []struct {
		name  string
		fresh func() cashCodec
	}{
		{"gkarray", func() cashCodec { return NewGKArray(0.01) }},
		{"gkbiased", func() cashCodec { return NewGKBiased(0.01) }},
		{"qdigest", func() cashCodec { return NewQDigest(0.01, 16) }},
		{"mrl99", func() cashCodec { return NewMRL99(0.01, 7) }},
		{"random", func() cashCodec { return NewRandom(0.01, 7) }},
		{"kll", func() cashCodec { return NewKLL(0.01, 7) }},
	}
	data := batchTestData(30000)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, got := tc.fresh(), tc.fresh()
			for _, x := range data {
				ref.Update(x)
			}
			feedBatches(got.(BatchCashRegister).UpdateBatch, data)
			if err := CheckInvariants(got); err != nil {
				t.Fatalf("invariants after UpdateBatch: %v", err)
			}
			refB, err := ref.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			gotB, err := got.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refB, gotB) {
				t.Fatalf("batched state differs from per-item state (%d vs %d bytes)", len(gotB), len(refB))
			}
		})
	}
}

// TestInsertDeleteBatchByteIdentical: the dyadic sketches are linear,
// so batched insertion and deletion must land on exactly the per-item
// counters — including a delete phase that removes every third element.
func TestInsertDeleteBatchByteIdentical(t *testing.T) {
	cases := []struct {
		name  string
		fresh func() turnCodec
	}{
		{"dcm", func() turnCodec { return NewDCM(0.05, 16, DyadicConfig{Seed: 7}) }},
		{"dcs", func() turnCodec { return NewDCS(0.05, 16, DyadicConfig{Seed: 7}) }},
		{"drss", func() turnCodec { return NewDRSS(0.05, 16, DyadicConfig{Seed: 7}) }},
	}
	data := batchTestData(20000)
	var dels []uint64
	for i := 0; i < len(data); i += 3 {
		dels = append(dels, data[i])
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, got := tc.fresh(), tc.fresh()
			for _, x := range data {
				ref.Insert(x)
			}
			for _, x := range dels {
				ref.Delete(x)
			}
			gb := got.(BatchTurnstile)
			feedBatches(gb.InsertBatch, data)
			feedBatches(gb.DeleteBatch, dels)
			if err := CheckInvariants(got); err != nil {
				t.Fatalf("invariants after batch insert/delete: %v", err)
			}
			refB, err := ref.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			gotB, err := got.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refB, gotB) {
				t.Fatal("batched turnstile state differs from per-item state")
			}
		})
	}
}

// rankWithinEps checks the ε-approximate quantile contract directly
// against the sorted stream: the answer's rank interval must intersect
// [target−tol, target+tol].
func rankWithinEps(t *testing.T, sorted []uint64, phi float64, ans uint64, tol int64) {
	t.Helper()
	n := int64(len(sorted))
	target := core.TargetRank(phi, n)
	below := int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] >= ans }))
	atOrBelow := int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > ans }))
	if below > target+tol || atOrBelow < target-tol {
		t.Errorf("Quantile(%v) = %d has rank interval [%d,%d], want within %d of %d",
			phi, ans, below, atOrBelow, tol, target)
	}
}

// TestGKCompressingBatchWithinEps: GKAdaptive and GKTheory legitimately
// compress across a batch (the merge pass is itself a COMPRESS), so the
// encoded state differs from per-item feeding — but the summary must
// keep its deep invariants and its εn rank guarantee against the raw
// stream.
func TestGKCompressingBatchWithinEps(t *testing.T) {
	cases := []struct {
		name  string
		fresh func() cashCodec
	}{
		{"gkadaptive", func() cashCodec { return NewGKAdaptive(0.01) }},
		{"gktheory", func() cashCodec { return NewGKTheory(0.01) }},
	}
	data := batchTestData(30000)
	sorted := append([]uint64(nil), data...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	eps := 0.01
	tol := int64(eps * float64(len(data)))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.fresh()
			feedBatches(got.(BatchCashRegister).UpdateBatch, data)
			if err := CheckInvariants(got); err != nil {
				t.Fatalf("invariants after UpdateBatch: %v", err)
			}
			if got.Count() != int64(len(data)) {
				t.Fatalf("count %d, want %d", got.Count(), len(data))
			}
			for _, phi := range EvenPhis(0.05) {
				rankWithinEps(t, sorted, phi, got.Quantile(phi), tol)
			}
		})
	}
}

// perItemOnly is a CashRegister with no native batch path: embedding
// the interface hides the wrapped summary's UpdateBatch. It counts the
// per-element updates it receives.
type perItemOnly struct {
	CashRegister
	updates int
}

func (p *perItemOnly) Update(x uint64) {
	p.updates++
	p.CashRegister.Update(x)
}

// TestBatchDispatchFallback: core.UpdateBatch must fall back to a
// per-element loop for summaries without a native batch path, and that
// loop must leave the summary exactly as per-item Update would.
func TestBatchDispatchFallback(t *testing.T) {
	w := &perItemOnly{CashRegister: NewGKArray(0.01)}
	if _, ok := interface{}(w).(BatchCashRegister); ok {
		t.Fatal("perItemOnly must not implement BatchCashRegister")
	}
	twin := NewGKArray(0.01)
	data := batchTestData(5000)
	feedBatches(func(xs []uint64) { UpdateBatch(w, xs) }, data)
	for _, x := range data {
		twin.Update(x)
	}
	if w.updates != len(data) || w.Count() != twin.Count() {
		t.Fatalf("fallback made %d updates, count %d; want %d, %d", w.updates, w.Count(), len(data), twin.Count())
	}
	for _, phi := range EvenPhis(0.01) {
		if got, want := w.Quantile(phi), twin.Quantile(phi); got != want {
			t.Fatalf("phi=%v: fallback answers %d, per-item twin %d", phi, got, want)
		}
	}
}
