package main

import (
	sq "streamquantiles"
	"streamquantiles/internal/core"
)

// Traced summaries. In a traced run the containers are built from
// factories returning these wrappers, so the work a container hands to
// its summaries shows up as kll/qdigest/dyadic child spans. Each
// wrapper forwards exactly the method set of its summary, so the
// containers probe the same capabilities (merge, snapshot, flush, batch,
// codec) and take the same paths as with the bare summary. Untraced runs
// use the bare summaries.

type tracedKLL struct {
	s *sq.KLL
	t *tracer
}

type tracedQDigest struct {
	s *sq.QDigest
	t *tracer
}

type tracedDyadic struct {
	s *sq.DyadicSketch
	t *tracer
}

// bare strips a traced wrapper, for the merge paths that type-check
// their argument.
func bare(s core.Summary) core.Summary {
	switch w := s.(type) {
	case *tracedKLL:
		return w.s
	case *tracedQDigest:
		return w.s
	case *tracedDyadic:
		return w.s
	}
	return s
}

func (w *tracedKLL) Update(x uint64) { defer w.t.child("kll.Update")(); w.s.Update(x) }
func (w *tracedKLL) UpdateBatch(xs []uint64) {
	defer w.t.child("kll.UpdateBatch")()
	w.s.UpdateBatch(xs)
}
func (w *tracedKLL) Count() int64        { return w.s.Count() }
func (w *tracedKLL) SpaceBytes() int64   { return w.s.SpaceBytes() }
func (w *tracedKLL) Eps() float64        { return w.s.Eps() }
func (w *tracedKLL) Invariants() error   { return w.s.Invariants() }
func (w *tracedKLL) Rank(x uint64) int64 { defer w.t.child("kll.Rank")(); return w.s.Rank(x) }
func (w *tracedKLL) Quantile(p float64) uint64 {
	defer w.t.child("kll.Quantile")()
	return w.s.Quantile(p)
}
func (w *tracedKLL) QuantileBatch(ps []float64) []uint64 {
	defer w.t.child("kll.QuantileBatch")()
	return w.s.QuantileBatch(ps)
}
func (w *tracedKLL) RankBatch(xs []uint64) []int64 {
	defer w.t.child("kll.RankBatch")()
	return w.s.RankBatch(xs)
}
func (w *tracedKLL) MergeSummary(o core.Summary) error {
	defer w.t.child("kll.MergeSummary")()
	return w.s.MergeSummary(bare(o))
}
func (w *tracedKLL) RetargetMerge(o core.Summary) error {
	defer w.t.child("kll.RetargetMerge")()
	return w.s.RetargetMerge(bare(o))
}
func (w *tracedKLL) AppendQuerySnapshot(qs *core.QuerySnapshot) {
	defer w.t.child("kll.AppendQuerySnapshot")()
	w.s.AppendQuerySnapshot(qs)
}
func (w *tracedKLL) MarshalBinary() ([]byte, error) {
	defer w.t.child("kll.MarshalBinary")()
	return w.s.MarshalBinary()
}
func (w *tracedKLL) AppendBinary(dst []byte) ([]byte, error) {
	defer w.t.child("kll.AppendBinary")()
	return w.s.AppendBinary(dst)
}
func (w *tracedKLL) UnmarshalBinary(b []byte) error {
	defer w.t.child("kll.UnmarshalBinary")()
	return w.s.UnmarshalBinary(b)
}

func (w *tracedQDigest) Update(x uint64) { defer w.t.child("qdigest.Update")(); w.s.Update(x) }
func (w *tracedQDigest) UpdateBatch(xs []uint64) {
	defer w.t.child("qdigest.UpdateBatch")()
	w.s.UpdateBatch(xs)
}
func (w *tracedQDigest) Flush()              { defer w.t.child("qdigest.Flush")(); w.s.Flush() }
func (w *tracedQDigest) Count() int64        { return w.s.Count() }
func (w *tracedQDigest) SpaceBytes() int64   { return w.s.SpaceBytes() }
func (w *tracedQDigest) Eps() float64        { return w.s.Eps() }
func (w *tracedQDigest) Invariants() error   { return w.s.Invariants() }
func (w *tracedQDigest) Rank(x uint64) int64 { defer w.t.child("qdigest.Rank")(); return w.s.Rank(x) }
func (w *tracedQDigest) Quantile(p float64) uint64 {
	defer w.t.child("qdigest.Quantile")()
	return w.s.Quantile(p)
}
func (w *tracedQDigest) QuantileBatch(ps []float64) []uint64 {
	defer w.t.child("qdigest.QuantileBatch")()
	return w.s.QuantileBatch(ps)
}
func (w *tracedQDigest) RankBatch(xs []uint64) []int64 {
	defer w.t.child("qdigest.RankBatch")()
	return w.s.RankBatch(xs)
}
func (w *tracedQDigest) MergeSummary(o core.Summary) error {
	defer w.t.child("qdigest.MergeSummary")()
	return w.s.MergeSummary(bare(o))
}
func (w *tracedQDigest) AppendQuerySnapshot(qs *core.QuerySnapshot) {
	defer w.t.child("qdigest.AppendQuerySnapshot")()
	w.s.AppendQuerySnapshot(qs)
}
func (w *tracedQDigest) MarshalBinary() ([]byte, error) {
	defer w.t.child("qdigest.MarshalBinary")()
	return w.s.MarshalBinary()
}
func (w *tracedQDigest) AppendBinary(dst []byte) ([]byte, error) {
	defer w.t.child("qdigest.AppendBinary")()
	return w.s.AppendBinary(dst)
}
func (w *tracedQDigest) UnmarshalBinary(b []byte) error {
	defer w.t.child("qdigest.UnmarshalBinary")()
	return w.s.UnmarshalBinary(b)
}

func (w *tracedDyadic) Insert(x uint64) { defer w.t.child("dyadic.Insert")(); w.s.Insert(x) }
func (w *tracedDyadic) Delete(x uint64) { defer w.t.child("dyadic.Delete")(); w.s.Delete(x) }
func (w *tracedDyadic) InsertBatch(xs []uint64) {
	defer w.t.child("dyadic.InsertBatch")()
	w.s.InsertBatch(xs)
}
func (w *tracedDyadic) DeleteBatch(xs []uint64) {
	defer w.t.child("dyadic.DeleteBatch")()
	w.s.DeleteBatch(xs)
}
func (w *tracedDyadic) AddBatch(xs []uint64, d int64) {
	defer w.t.child("dyadic.AddBatch")()
	w.s.AddBatch(xs, d)
}
func (w *tracedDyadic) Count() int64        { return w.s.Count() }
func (w *tracedDyadic) SpaceBytes() int64   { return w.s.SpaceBytes() }
func (w *tracedDyadic) Eps() float64        { return w.s.Eps() }
func (w *tracedDyadic) Invariants() error   { return w.s.Invariants() }
func (w *tracedDyadic) Rank(x uint64) int64 { defer w.t.child("dyadic.Rank")(); return w.s.Rank(x) }
func (w *tracedDyadic) Quantile(p float64) uint64 {
	defer w.t.child("dyadic.Quantile")()
	return w.s.Quantile(p)
}
func (w *tracedDyadic) QuantileBatch(ps []float64) []uint64 {
	defer w.t.child("dyadic.QuantileBatch")()
	return w.s.QuantileBatch(ps)
}
func (w *tracedDyadic) RankBatch(xs []uint64) []int64 {
	defer w.t.child("dyadic.RankBatch")()
	return w.s.RankBatch(xs)
}
func (w *tracedDyadic) MergeSummary(o core.Summary) error {
	defer w.t.child("dyadic.MergeSummary")()
	return w.s.MergeSummary(bare(o))
}
func (w *tracedDyadic) MarshalBinary() ([]byte, error) {
	defer w.t.child("dyadic.MarshalBinary")()
	return w.s.MarshalBinary()
}
func (w *tracedDyadic) AppendBinary(dst []byte) ([]byte, error) {
	defer w.t.child("dyadic.AppendBinary")()
	return w.s.AppendBinary(dst)
}
func (w *tracedDyadic) UnmarshalBinary(b []byte) error {
	defer w.t.child("dyadic.UnmarshalBinary")()
	return w.s.UnmarshalBinary(b)
}

// Constructors: every workload builds its summaries through these, with
// t nil in untraced runs.

const eps = 0.01

func newKLL(t *tracer, seed uint64) sq.CashRegister {
	s := sq.NewKLL(eps, seed)
	if t == nil {
		return s
	}
	return &tracedKLL{s, t}
}

func newQDigest(t *tracer, bits int) sq.CashRegister {
	s := sq.NewQDigest(eps, bits)
	if t == nil {
		return s
	}
	return &tracedQDigest{s, t}
}

func newDCS(t *tracer, seed uint64) sq.Turnstile {
	s := sq.NewDCS(eps, churnBits, sq.DyadicConfig{Seed: seed})
	if t == nil {
		return s
	}
	return &tracedDyadic{s, t}
}
