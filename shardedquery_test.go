package streamquantiles

import (
	"bytes"
	"encoding"
	"sort"
	"sync/atomic"
	"testing"

	"streamquantiles/internal/core"
)

// Sharded query-path properties: the construction-time mergeability
// probe, the epoch-keyed fold cache, the parallel tree-merge's
// equivalence to a sequential fold, and the 2εn+P combined-rank bound
// of the GK additive combination.

// TestShardedMergeableProbe pins the construction-time capability
// probe: a merge-compatible factory folds, a factory whose instances
// cannot merge (here: differing ε per call) is detected up front, and
// a non-Mergeable family never claims to fold.
func TestShardedMergeableProbe(t *testing.T) {
	same := mustShardedCash(t, 2, func() CashRegister { return NewKLL(0.01, 7) })
	if !same.Mergeable() {
		t.Error("identically configured KLL factory: Mergeable() = false, want true")
	}
	var n atomic.Int64
	drift := mustShardedCash(t, 2, func() CashRegister {
		return NewKLL(0.01/float64(n.Add(1)), 7)
	})
	if drift.Mergeable() {
		t.Error("eps-drifting KLL factory: Mergeable() = true, want false (instances cannot merge)")
	}
	gk := mustShardedCash(t, 2, func() CashRegister { return NewGKArray(0.01) })
	if gk.Mergeable() {
		t.Error("GKArray is not Mergeable, but the probe claims it folds")
	}
	// The drifting factory must still answer (per-shard snapshots
	// combined by additive rank), just without the merged fast path.
	data := batchTestData(4000)
	feedBatches(drift.UpdateBatch, data)
	sorted := append([]uint64(nil), data...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rankWithinEps(t, sorted, 0.5, drift.Quantile(0.5), int64(2*0.01*float64(len(data)))+2)
}

// TestShardedFoldCacheReuse counts factory invocations to pin the
// epoch cache's contract: folding a mergeable family costs one fresh
// summary per shard per *write generation*, never per query — and the
// snapshot combination of non-mergeable families costs none at all.
func TestShardedFoldCacheReuse(t *testing.T) {
	const p = 4
	data := batchTestData(20000)
	phis := EvenPhis(0.1)

	t.Run("mergeable", func(t *testing.T) {
		var calls atomic.Int64
		s := mustShardedCash(t, p, func() CashRegister {
			calls.Add(1)
			return NewKLL(0.01, 7)
		})
		base := calls.Load()
		if base != p+2 {
			t.Fatalf("construction used %d fresh summaries, want %d (P shards + 2 probe throwaways)", base, p+2)
		}
		feedBatches(s.UpdateBatch, data)
		s.Quantile(0.5) // first query folds: one fresh partial per shard
		afterFold := calls.Load()
		if afterFold != base+p {
			t.Fatalf("first query used %d fresh summaries, want %d (one per shard)", afterFold-base, p)
		}
		s.Quantile(0.9)
		s.QuantileBatch(phis)
		s.Rank(data[0])
		s.RankBatch(data[:8])
		if got := calls.Load(); got != afterFold {
			t.Errorf("%d fresh summaries built by queries on a quiet summary, want 0 (cache hit)", got-afterFold)
		}
		s.Update(data[0]) // retire the fold
		s.Quantile(0.5)
		if got := calls.Load(); got != afterFold+p {
			t.Errorf("query after a write used %d fresh summaries, want %d (one re-fold)", got-afterFold, p)
		}
	})

	t.Run("snapshots", func(t *testing.T) {
		var calls atomic.Int64
		s := mustShardedCash(t, p, func() CashRegister {
			calls.Add(1)
			return NewGKArray(0.01)
		})
		base := calls.Load()
		feedBatches(s.UpdateBatch, data)
		s.Quantile(0.5)
		s.QuantileBatch(phis)
		s.Update(data[0])
		s.Quantile(0.5)
		if got := calls.Load(); got != base {
			t.Errorf("snapshot combination built %d fresh summaries, want 0", got-base)
		}
	})
}

// TestShardedParallelMergeMatchesManualFold replays the fold by hand —
// one fresh summary per shard fed that shard's exact round-robin
// share, reduced in the same pairwise tree order — and requires the
// sharded summary's cached-fold answers to match exactly. Its P=1
// clause pins the degenerate case for every registered summary: a
// one-shard container and a Safe wrapper answer exactly like their
// unsharded twin (checkOneShardIdentity).
func TestShardedParallelMergeMatchesManualFold(t *testing.T) {
	const p, chunk = 4, 1000
	data := batchTestData(24000)
	phis := EvenPhis(0.05)

	s := mustShardedCash(t, p, func() CashRegister { return NewKLL(0.01, 7) })
	shards := make([]*KLL, p)
	for i := range shards {
		shards[i] = NewKLL(0.01, 7)
	}
	for j, i := 0, 0; i < len(data); j, i = j+1, i+chunk {
		end := min(i+chunk, len(data))
		s.UpdateBatch(data[i:end])           // round-robin: chunk j -> shard j%p
		shards[j%p].UpdateBatch(data[i:end]) // same partition, by hand
	}
	// Replicate rebuildCombined: merge each shard into its own fresh
	// summary, then reduce pairwise with stride doubling.
	parts := make([]core.Summary, p)
	for i, sh := range shards {
		m := NewKLL(0.01, 7)
		if err := m.MergeSummary(sh); err != nil {
			t.Fatal(err)
		}
		parts[i] = m
	}
	for stride := 1; stride < p; stride *= 2 {
		for i := 0; i+stride < p; i += 2 * stride {
			if err := parts[i].(core.Mergeable).MergeSummary(parts[i+stride]); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := QuantileBatch(parts[0], phis)
	for i, q := range s.QuantileBatch(phis) {
		if q != want[i] {
			t.Errorf("sharded fold Quantile(%v) = %d, manual fold = %d", phis[i], q, want[i])
		}
	}

	for _, f := range oneShardFamilies {
		t.Run("P=1/"+f.name, func(t *testing.T) { checkOneShardIdentity(t, f, data) })
	}
}

// oneShardFamily builds one registered summary at a given ε, through
// whichever of the two stream models it implements.
type oneShardFamily struct {
	name string
	eps  float64
	cash func(eps float64) CashRegister
	turn func(eps float64) Turnstile
}

func (f oneShardFamily) fresh(eps float64) Summary {
	if f.cash != nil {
		return f.cash(eps)
	}
	return f.turn(eps)
}

// oneShardFamilies lists every registered summary: the eight
// cash-register families and the three dyadic sketches.
var oneShardFamilies = []oneShardFamily{
	{name: "GKAdaptive", eps: 0.01, cash: func(e float64) CashRegister { return NewGKAdaptive(e) }},
	{name: "GKTheory", eps: 0.01, cash: func(e float64) CashRegister { return NewGKTheory(e) }},
	{name: "GKArray", eps: 0.01, cash: func(e float64) CashRegister { return NewGKArray(e) }},
	{name: "GKBiased", eps: 0.01, cash: func(e float64) CashRegister { return NewGKBiased(e) }},
	{name: "QDigest", eps: 0.01, cash: func(e float64) CashRegister { return NewQDigest(e, 16) }},
	{name: "MRL99", eps: 0.01, cash: func(e float64) CashRegister { return NewMRL99(e, 7) }},
	{name: "Random", eps: 0.01, cash: func(e float64) CashRegister { return NewRandom(e, 7) }},
	{name: "KLL", eps: 0.01, cash: func(e float64) CashRegister { return NewKLL(e, 7) }},
	{name: "DCM", eps: 0.05, turn: func(e float64) Turnstile { return NewDCM(e, 16, DyadicConfig{Seed: 7}) }},
	{name: "DCS", eps: 0.05, turn: func(e float64) Turnstile { return NewDCS(e, 16, DyadicConfig{Seed: 7}) }},
	{name: "DRSS", eps: 0.05, turn: func(e float64) Turnstile { return NewDRSS(e, 16, DyadicConfig{Seed: 7}) }},
}

// feedOneShard applies the same write sequence to every target: batches
// and single updates for a cash register; for a turnstile, inserts of
// all of data followed by deletions of every third element, so the
// stream stays strict.
func feedOneShard(data []uint64, targets ...Summary) {
	for _, s := range targets {
		switch u := s.(type) {
		case CashRegister:
			feedBatches(func(xs []uint64) { core.UpdateBatch(u, xs) }, data[:len(data)/2])
			for _, x := range data[len(data)/2:] {
				u.Update(x)
			}
		case Turnstile:
			feedBatches(func(xs []uint64) { core.InsertBatch(u, xs) }, data)
			for i, x := range data {
				if i%3 == 0 {
					u.Delete(x)
				}
			}
		}
	}
}

// matchOneShard requires got to answer Quantile, QuantileBatch, Rank
// and RankBatch byte for byte like twin.
func matchOneShard(t *testing.T, label string, got, twin Summary) {
	t.Helper()
	phis := EvenPhis(0.01)
	probes := make([]uint64, 0, 256)
	for x := uint64(0); x < 1<<16; x += 257 {
		probes = append(probes, x)
	}
	want, gotB := QuantileBatch(twin, phis), QuantileBatch(got, phis)
	wantR, gotR := RankBatch(twin, probes), RankBatch(got, probes)
	bad := 0
	for i, phi := range phis {
		if q, w := got.Quantile(phi), twin.Quantile(phi); q != w || gotB[i] != want[i] {
			bad++
			if bad <= 3 {
				t.Errorf("%s: Quantile(%v) = %d, QuantileBatch = %d; twin %d, %d", label, phi, q, gotB[i], w, want[i])
			}
		}
	}
	for i, x := range probes {
		if r, w := got.Rank(x), twin.Rank(x); r != w || gotR[i] != wantR[i] {
			bad++
			if bad <= 3 {
				t.Errorf("%s: Rank(%d) = %d, RankBatch = %d; twin %d, %d", label, x, r, gotR[i], w, wantR[i])
			}
		}
	}
	if bad > 3 {
		t.Errorf("%s: %d answers differ from the unsharded twin", label, bad)
	}
}

// checkOneShardIdentity pins the one-shard case: a P=1 sharded container
// and a Safe wrapper, fed the same stream as an unsharded twin, answer
// exactly like it — after writes, after a Safe Restore of the wrapper's
// own encoding (which must be the twin's), and after a Safe Retarget to
// a coarser ε with the twin absorbed the same way.
func checkOneShardIdentity(t *testing.T, f oneShardFamily, data []uint64) {
	twin := f.fresh(f.eps)
	var p1, safe, blank Summary
	if f.cash != nil {
		p1 = mustShardedCash(t, 1, func() CashRegister { return f.cash(f.eps) })
		safe, blank = NewSafeCashRegister(f.cash(f.eps)), NewSafeCashRegister(f.cash(f.eps))
	} else {
		p1 = mustShardedTurn(t, 1, func() Turnstile { return f.turn(f.eps) })
		safe, blank = NewSafeTurnstile(f.turn(f.eps)), NewSafeTurnstile(f.turn(f.eps))
	}
	feedOneShard(data, twin, p1, safe)
	matchOneShard(t, "P=1 sharded", p1, twin)
	matchOneShard(t, "Safe", safe, twin)

	type safeCodec interface {
		Snapshot() ([]byte, error)
		Restore([]byte) error
	}
	if m, ok := twin.(encoding.BinaryMarshaler); ok {
		want, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := safe.(safeCodec).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, want) {
			t.Fatalf("Safe Snapshot is %d bytes, not the twin's own %d-byte encoding", len(blob), len(want))
		}
		if err := blank.(safeCodec).Restore(blob); err != nil {
			t.Fatal(err)
		}
		matchOneShard(t, "Safe after Restore", blank, twin)
	}

	// Retarget to a coarser ε of the same family: the twin is absorbed
	// into a fresh coarse summary by merge or retarget-merge; with no
	// absorb path the Safe Retarget must fail and change nothing.
	coarse := f.fresh(2 * f.eps)
	absorbed := false
	if m, ok := coarse.(core.Mergeable); ok && m.MergeSummary(twin) == nil {
		absorbed = true
	} else if r, ok := coarse.(core.Retargetable); ok && r.RetargetMerge(twin) == nil {
		absorbed = true
	}
	var err error
	switch s := safe.(type) {
	case *SafeCashRegister:
		err = s.Retarget(f.cash(2 * f.eps))
	case *SafeTurnstile:
		err = s.Retarget(f.turn(2 * f.eps))
	}
	if !absorbed {
		if err == nil {
			t.Fatal("Safe Retarget succeeded where the twin has no absorb path")
		}
		matchOneShard(t, "Safe after a refused Retarget", safe, twin)
		return
	}
	if err != nil {
		t.Fatalf("Safe Retarget: %v", err)
	}
	feedOneShard(data[:len(data)/4], coarse, safe)
	matchOneShard(t, "Safe after Retarget and more writes", safe, coarse)
}

// TestShardedGKCombinedRankBound measures the additive GK combination
// against the documented bound: the summed rank estimate differs from
// the true combined rank by at most 2εn+P, and every quantile answer's
// rank error stays within the same bound (versus εn unsharded).
func TestShardedGKCombinedRankBound(t *testing.T) {
	const p = 4
	eps := 0.01
	data := batchTestData(30000)
	sorted := append([]uint64(nil), data...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s := mustShardedCash(t, p, func() CashRegister { return NewGKArray(eps) })
	feedBatches(s.UpdateBatch, data)
	tol := int64(2*eps*float64(len(data))) + p

	var probes []uint64
	for x := uint64(0); x < 1<<16; x += 131 {
		probes = append(probes, x)
	}
	rs := s.RankBatch(probes)
	for i, x := range probes {
		truth := int64(sort.Search(len(sorted), func(j int) bool { return sorted[j] >= x }))
		if d := rs[i] - truth; d > tol || d < -tol {
			t.Errorf("Rank(%d) = %d, true strict rank %d: error %d exceeds 2εn+P = %d", x, rs[i], truth, d, tol)
		}
	}
	for _, phi := range EvenPhis(0.02) {
		rankWithinEps(t, sorted, phi, s.Quantile(phi), tol)
	}
}
