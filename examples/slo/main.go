// SLO monitoring: biased quantiles track an error-budget percentile with
// *relative* precision, and a tumbling view — a fresh summary per
// interval, read when the interval closes — keeps the view recent:
// together, "p99.9 over the last hour" without storing the hour.
//
// The scenario: a service emits latencies; we track the extreme tail
// (a very low quantile of the mirrored stream) and the latency
// distribution per interval. Late in the run the service degrades; the
// last interval's summary notices, the all-time summary barely moves —
// the motivation for per-interval views.
package main

import (
	"fmt"
	"math"

	sq "streamquantiles"
)

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// latencyMicros draws a lognormal latency; degraded mode doubles the
// median and fattens the tail.
func latencyMicros(r *rng, degraded bool) uint64 {
	u1, u2 := r.float(), r.float()
	for u1 == 0 {
		u1 = r.float()
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	mu, sigma := 8.0, 0.5 // e^8 ≈ 3ms
	if degraded {
		mu, sigma = 8.7, 0.8
	}
	us := math.Exp(mu + sigma*z)
	if us > 4e9 {
		us = 4e9
	}
	return uint64(us)
}

func main() {
	const (
		n        = 1_200_000
		interval = 200_000
		eps      = 0.005
	)
	// All-time view vs the last closed interval of the same stream.
	allTime := sq.NewGKArray(eps)
	current, last := sq.NewGKArray(eps), sq.NewGKArray(eps)
	// Biased summary for the extreme tail: relative error means p99.99
	// is as trustworthy as p90.
	tail := sq.NewGKBiased(0.1)

	r := &rng{s: 9}
	for i := 0; i < n; i++ {
		degraded := i >= n*3/4 // the last quarter of traffic is degraded
		v := latencyMicros(r, degraded)
		allTime.Update(v)
		current.Update(v)
		if current.Count() == interval {
			// The interval closes: its summary becomes the recent view
			// and the next interval starts from a fresh one.
			last, current = current, sq.NewGKArray(eps)
		}
		// Track slow requests from the top: rank of (max − v) is low for
		// slow requests, where the biased summary is sharpest.
		tail.Update(^v)
	}

	fmt.Println("== after degradation (last 25% of traffic) ==")
	fmt.Printf("%-28s %-12s %-12s\n", "", "all-time", fmt.Sprintf("last %d", last.Count()))
	for _, phi := range []float64{0.5, 0.99} {
		fmt.Printf("p%-27g %-12d %-12d\n",
			phi*100, allTime.Quantile(phi), last.Quantile(phi))
	}
	fmt.Println()
	fmt.Println("extreme tail via biased summary (relative error ≤ 10% of rank):")
	for _, phi := range []float64{0.01, 0.001, 0.0001} {
		// φ-quantile of the mirrored stream = (1−φ)-quantile of latency.
		v := ^tail.Quantile(phi)
		fmt.Printf("  p%-8.4g ≈ %d µs\n", (1-phi)*100, v)
	}
	fmt.Printf("\nsummaries: all-time %.1fKB, last interval %.1fKB, tail %.1fKB (raw stream: %.1fMB)\n",
		float64(allTime.SpaceBytes())/1024, float64(last.SpaceBytes())/1024,
		float64(tail.SpaceBytes())/1024, float64(8*n)/(1<<20))
}
