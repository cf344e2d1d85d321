package sharded

import (
	"slices"
	"testing"

	"streamquantiles/internal/core"
)

// list is a toy exact cash-register summary over unit-weight values. It
// flattens exactly (core.Snapshotter) and counts its snapshot builds
// and live quantile queries, so the epoch cache's work can be pinned.
type list struct {
	vals           []uint64
	builds, direct int
}

func (l *list) Count() int64      { return int64(len(l.vals)) }
func (l *list) SpaceBytes() int64 { return int64(len(l.vals)) * 8 }
func (l *list) Update(x uint64) {
	i, _ := slices.BinarySearch(l.vals, x)
	l.vals = slices.Insert(l.vals, i, x)
}

func (l *list) Rank(x uint64) int64 {
	i, _ := slices.BinarySearch(l.vals, x)
	return int64(i)
}

func (l *list) Quantile(phi float64) uint64 {
	core.CheckPhi(phi)
	if len(l.vals) == 0 {
		panic(core.ErrEmpty)
	}
	l.direct++
	return l.vals[core.TargetRank(phi, l.Count())]
}

func (l *list) AppendQuerySnapshot(qs *core.QuerySnapshot) {
	l.builds++
	qs.Reset()
	qs.N = l.Count()
	for i, v := range l.vals {
		qs.QVals = append(qs.QVals, v)
		qs.QKeys = append(qs.QKeys, int64(i)+1)
		qs.RVals = append(qs.RVals, v)
		qs.RRanks = append(qs.RRanks, int64(i)+1)
	}
	qs.RStrict = true
}

func (l *list) MergeSummary(other core.Summary) error {
	for _, v := range other.(interface{ values() []uint64 }).values() {
		l.Update(v)
	}
	return nil
}

func (l *list) values() []uint64 { return l.vals }

// liveList is list without an exact flattening: its queries must reach
// the live summary.
type liveList struct{ l *list }

func (v liveList) Count() int64                { return v.l.Count() }
func (v liveList) SpaceBytes() int64           { return v.l.SpaceBytes() }
func (v liveList) Update(x uint64)             { v.l.Update(x) }
func (v liveList) Rank(x uint64) int64         { return v.l.Rank(x) }
func (v liveList) Quantile(phi float64) uint64 { return v.l.Quantile(phi) }
func (v liveList) values() []uint64            { return v.l.vals }
func (v liveList) MergeSummary(other core.Summary) error {
	return v.l.MergeSummary(other)
}

// TestOneEpochCache walks the one epoch cache through a One: the first
// query builds the lone shard's own snapshot and answers exactly, quiet
// queries and encodes never rebuild, every write and Restore retires
// the snapshot, and a Retarget onto a summary without a flattening
// sends queries to the live summary instead.
func TestOneEpochCache(t *testing.T) {
	l := &list{}
	var o One[core.CashRegister]
	Init(&o, core.CashRegister(l))
	for x := uint64(0); x < 1000; x++ {
		Write(&o, func(s core.CashRegister) { s.Update(x * 10) })
	}
	phis := core.EvenPhis(0.1)
	for _, phi := range phis {
		if got, want := o.Quantile(phi), l.vals[core.TargetRank(phi, l.Count())]; got != want {
			t.Errorf("Quantile(%v) = %d, exact %d", phi, got, want)
		}
	}
	for x := uint64(0); x < 10000; x += 7 {
		if got, want := o.Rank(x), l.Rank(x); got != want {
			t.Errorf("Rank(%d) = %d, exact %d", x, got, want)
		}
	}
	o.QuantileBatch(phis)
	o.RankBatch([]uint64{1, 2, 3})
	if _, err := o.Snapshot(); err == nil {
		t.Error("Snapshot of a summary without a codec did not fail")
	}
	if l.builds != 1 || l.direct != 0 {
		t.Fatalf("quiet queries built %d snapshots and ran %d live queries, want 1 and 0", l.builds, l.direct)
	}

	Write(&o, func(s core.CashRegister) { s.Update(5) })
	if got := o.Rank(6); got != 2 || l.builds != 2 {
		t.Fatalf("after a write Rank(6) = %d with %d builds, want 2 from a rebuilt snapshot (2 builds)", got, l.builds)
	}
	if err := o.Restore(nil); err == nil {
		t.Error("Restore into a summary without a codec did not fail")
	}
	o.Rank(6)
	if l.builds != 3 {
		t.Fatalf("a Restore did not retire the snapshot: %d builds, want 3", l.builds)
	}

	live := liveList{&list{}}
	if err := o.Retarget(live); err != nil {
		t.Fatal(err)
	}
	if got, want := o.Count(), int64(1001); got != want {
		t.Fatalf("Count after Retarget = %d, want %d", got, want)
	}
	if got, want := o.Quantile(0.5), live.l.vals[core.TargetRank(0.5, 1001)]; got != want || live.l.direct != 1 {
		t.Fatalf("Quantile(0.5) after Retarget = %d from %d live queries, want %d from 1", got, live.l.direct, want)
	}
	if live.l.builds != 0 || l.builds != 3 {
		t.Fatalf("a summary without a flattening was snapshotted (%d, %d builds)", live.l.builds, l.builds)
	}
}
