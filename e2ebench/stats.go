package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// A live run is cut into windows of this length. Each window is quiet
// or not by how fast a fixed reference computation ran in it, and every
// live figure is read only from the quiet windows.
//
// Why: on a shared machine a neighbour slows the program by up to 2x
// for bursts from a twentieth of a second to several seconds. A median
// over a run then measures how much of the run the neighbours were
// busy. The reference computation (sorting refInput, which touches no
// library code) slows in step with the program's own sorting and
// merging, so the windows where it ran at its run's best speed are the
// ones where the program had the core to itself. Selecting windows by the reference, not by the program's own
// timings, keeps a stall the program causes in the figures.
const (
	window     = 50 * time.Millisecond
	refEvery   = 2 * time.Millisecond // the reference runs at most this often
	quietBest  = 0.02                 // the run's best reference time: this quantile of the windows' medians
	quietSlack = 1.1                  // quiet: reference median within 1.1x the best
	quietFloor = 0.1                  // at least this share of windows counts as quiet
)

// meter times the reference computation through one live phase and
// decides which of its windows were quiet.
type meter struct {
	start, end time.Time
	next       time.Time
	ref        [][]int64 // reference durations in ns, by window
	quiet      []bool    // by window, set by stop
	all        bool      // no window could be judged: every sample counts
	best       float64   // the best reference time (quietBest), ns
	buf        [len(refInput)]uint64
}

func newMeter(start time.Time) *meter { return &meter{start: start, next: start} }

// countAll returns a meter that runs no reference and counts every
// sample, for timings that are not a live phase.
func countAll(start time.Time) *meter { return &meter{start: start, all: true} }

// tick runs the reference computation if it is due. Call it between
// operations with the time the last one ended; it returns the time to
// start the next one from.
func (m *meter) tick(now time.Time) time.Time {
	if now.Before(m.next) {
		return now
	}
	// The first sort warms the caches the operation before left cold,
	// so the timed one measures the core, not what ran before it.
	copy(m.buf[:], refInput[:])
	slices.Sort(m.buf[:])
	copy(m.buf[:], refInput[:])
	t0 := time.Now()
	slices.Sort(m.buf[:])
	t1 := time.Now()
	i := int(t1.Sub(m.start) / window)
	for len(m.ref) <= i {
		m.ref = append(m.ref, nil)
	}
	m.ref[i] = append(m.ref[i], int64(t1.Sub(t0)))
	m.next = t1.Add(refEvery)
	return t1
}

// refInput is the reference computation's input: 256 fixed
// pseudo-random values, a few microseconds of sorting.
var refInput = func() (xs [256]uint64) {
	r := splitmix64{0x5eed}
	for i := range xs {
		xs[i] = r.next()
	}
	return xs
}()

// stop ends the phase at end and marks the quiet windows: the full
// windows whose median reference time is within quietSlack of the
// best, and at least the quietFloor share of the full windows with the
// best reference times. The best is a low quantile, not the minimum,
// so that one lucky window does not set it.
func (m *meter) stop(end time.Time) {
	m.end = end
	full := int(end.Sub(m.start) / window)
	m.quiet = make([]bool, full)
	type wm struct {
		i   int
		med float64
	}
	var ws []wm
	for i := 0; i < full && i < len(m.ref); i++ {
		if len(m.ref[i]) > 0 {
			ws = append(ws, wm{i, medianInt(m.ref[i])})
		}
	}
	if len(ws) == 0 {
		m.all = true
		return
	}
	slices.SortFunc(ws, func(a, b wm) int { return cmp.Compare(a.med, b.med) })
	m.best = ws[int(math.Ceil(quietBest*float64(len(ws))))-1].med
	floor := int(math.Ceil(quietFloor * float64(len(ws))))
	for k, w := range ws {
		if k < floor || w.med <= quietSlack*m.best {
			m.quiet[w.i] = true
		}
	}
}

// quietWindows is the number of quiet windows and the number of full
// windows the phase was judged on.
func (m *meter) quietWindows() (quiet, full int) {
	for _, q := range m.quiet {
		if q {
			quiet++
		}
	}
	return quiet, len(m.quiet)
}

// counts reports whether samples of window i count.
func (m *meter) counts(i int) bool {
	return m.all || (i < len(m.quiet) && m.quiet[i])
}

// seconds is the time the counted windows cover.
func (m *meter) seconds() float64 {
	if m.all {
		return m.end.Sub(m.start).Seconds()
	}
	q, _ := m.quietWindows()
	return float64(q) * window.Seconds()
}

// lat collects per-operation latencies of one phase, bucketed by the
// window in which each operation ended.
type lat struct {
	m   *meter
	win [][]int64 // ns, by window index
}

func newLat(m *meter) *lat { return &lat{m: m} }

// add records an operation that ended at end and took d.
func (l *lat) add(end time.Time, d time.Duration) {
	i := max(0, int(end.Sub(l.m.start)/window))
	for len(l.win) <= i {
		l.win = append(l.win, nil)
	}
	l.win[i] = append(l.win[i], int64(d))
}

// since records an operation that started at t0 and has just ended.
func (l *lat) since(t0 time.Time) {
	now := time.Now()
	l.add(now, now.Sub(t0))
}

// samples returns the latencies that ended in counted windows.
func (l *lat) samples() []int64 {
	var s []int64
	for i, w := range l.win {
		if l.m.counts(i) {
			s = append(s, w...)
		}
	}
	return s
}

// n is the number of counted samples.
func (l *lat) n() int {
	n := 0
	for i, w := range l.win {
		if l.m.counts(i) {
			n += len(w)
		}
	}
	return n
}

// pct is the nearest-rank p-th percentile in µs over the counted
// samples (NaN when there are none).
func (l *lat) pct(p float64) float64 { return pctOf(l.samples(), p) }

func pctOf(s []int64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	s = slices.Clone(s)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return float64(s[max(0, min(i, len(s)-1))]) / 1e3
}

// rate is the operations completed per second in the counted windows,
// times per (the units one operation counts for).
func (l *lat) rate(per float64) float64 {
	return float64(l.n()) * per / l.m.seconds()
}

// tailPct is the highest of the reported tail percentiles that still
// has at least ten samples beyond it, or 0 when none has.
func tailPct(n int) float64 {
	for _, p := range []float64{99.9, 99} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 0
}

// median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func medianInt(xs []int64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return float64(s[len(s)/2])
}

// medianOf runs fn reps times and returns the median of its results.
func medianOf(reps int, fn func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

func secs(d time.Duration) float64 { return d.Seconds() }
func ms(d time.Duration) float64   { return float64(d) / 1e6 }
func us(d time.Duration) float64   { return float64(d) / 1e3 }
