package main

import (
	"fmt"
	"math"

	"streamquantiles/internal/core"
	"streamquantiles/internal/exact"
)

// The correctness gate. Every workload ends at a quiesced barrier that
// checks the container against an exact oracle over everything it was
// fed: every probe quantile and rank within the container's declared
// bound 2·EpsBudget·n + Shards + Components, count conservation and
// Invariants(). Each check is one attempted operation; a miss or an
// error is one failed operation.

// gate counts attempted and failed operations and keeps the first few
// failure messages.
type gate struct {
	attempted, failed int64
	msgs              []string
}

func (g *gate) ok(cond bool, format string, args ...any) {
	g.attempted++
	if cond {
		return
	}
	g.failed++
	if len(g.msgs) < 20 {
		g.msgs = append(g.msgs, fmt.Sprintf(format, args...))
	}
}

// errOp records an operation that returned an error.
func (g *gate) errOp(what string, err error) {
	g.ok(err == nil, "%s: %v", what, err)
}

func (g *gate) add(o *gate) {
	g.attempted += o.attempted
	g.failed += o.failed
	for _, m := range o.msgs {
		if len(g.msgs) < 20 {
			g.msgs = append(g.msgs, m)
		}
	}
}

// oracle gives exact rank intervals over a multiset that is a weighted
// sum of sorted samples: k copies of each part.
type oracle []weightedPart

type weightedPart struct {
	o *exact.Oracle
	k int64
}

func exactOracle(xs []uint64) oracle { return oracle{{exact.New(xs), 1}} }

func (o oracle) n() int64 {
	var n int64
	for _, p := range o {
		n += p.k * p.o.N()
	}
	return n
}

// rankInterval is [#<x, #≤x − 1] (both #<x when x is absent), the rank
// positions x occupies.
func (o oracle) rankInterval(x uint64) (lo, hi int64) {
	for _, p := range o {
		lo += p.k * p.o.Rank(x)
		hi += p.k * p.o.Rank(x+1)
	}
	return lo, max(lo, hi-1)
}

// queryable is the query surface shared by the Safe wrappers and the
// sharded containers.
type queryable interface {
	Count() int64
	Quantile(phi float64) uint64
	QuantileBatch(phis []float64) []uint64
	Rank(x uint64) int64
	RankBatch(xs []uint64) []int64
}

// accuracy is the observed rank error over the probe grid, in units of
// ε·n.
type accuracy struct{ maxEps, avgEps float64 }

// checkAnswers runs the barrier's probe checks: the 1/ε−1 evenly spaced
// quantiles (the paper's protocol) and ranks at a grid over the
// universe [0, 2^bits), each against the oracle within tol.
func checkAnswers(g *gate, c queryable, o oracle, tol int64, bits int) accuracy {
	n := o.n()
	g.ok(c.Count() == n, "count %d, want %d", c.Count(), n)
	if n == 0 {
		return accuracy{}
	}
	phis := core.EvenPhis(eps)
	got := c.QuantileBatch(phis)
	var acc accuracy
	for i, phi := range phis {
		target := core.TargetRank(phi, n)
		lo, hi := o.rankInterval(got[i])
		var dist int64
		switch {
		case target < lo:
			dist = lo - target
		case target > hi:
			dist = target - hi
		}
		g.ok(dist <= tol, "quantile %.2f -> %d has rank [%d,%d], target %d, off by %d > tol %d (n=%d)", phi, got[i], lo, hi, target, dist, tol, n)
		e := float64(dist) / (eps * float64(n))
		acc.maxEps = math.Max(acc.maxEps, e)
		acc.avgEps += e / float64(len(phis))
		if i%10 == 0 {
			one := c.Quantile(phi)
			g.ok(one == got[i], "Quantile(%.2f)=%d disagrees with QuantileBatch=%d", phi, one, got[i])
		}
	}
	xs := make([]uint64, 33)
	for i := range xs {
		xs[i] = uint64(i) << bits / uint64(len(xs)-1)
	}
	xs[len(xs)-1]--
	ranks := c.RankBatch(xs)
	for i, x := range xs {
		lo, hi := o.rankInterval(x)
		g.ok(ranks[i] >= lo-tol && ranks[i] <= hi+tol, "rank(%d)=%d outside exact [%d,%d] ± %d", x, ranks[i], lo, hi, tol)
		if i%8 == 0 {
			one := c.Rank(x)
			g.ok(one == ranks[i], "Rank(%d)=%d disagrees with RankBatch=%d", x, one, ranks[i])
		}
	}
	return acc
}

// containerTol is the sharded containers' declared bound.
func containerTol(c shardedC, n int64) int64 {
	return int64(2*c.EpsBudget()*float64(n)) + int64(c.Shards()) + int64(c.Components())
}
