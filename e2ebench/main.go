// Command e2ebench is the repository's end-to-end benchmark. It runs one
// of three workloads against the public API in one process, checks every
// answer against an exact oracle, and prints its metrics by name and
// unit; the last line of standard output is one JSON object.
//
//	bash e2ebench/run.sh --workload ingest|query|churn --seed N --seconds S --trace 0|1
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// it runs the workload twice, untraced and traced, reports how much the
// tracing cost, each layer's share of busy time, and a per-layer ladder
// that replays the workload's own input through raw summary, batch path,
// Safe wrapper, sharded P=1, P=1 writer handle and sharded P=N. See
// NOTES.md for why each workload exists and what it bypasses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one run's settings.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	workDir   string // checkpoint directories go here
	traceFile string // the traced run writes its spans here
	sz        sizes
}

// sizes are the workload dimensions; the smoke test shrinks them.
type sizes struct {
	ingestStream     int           // per-writer input, replayed in laps
	ingestWarm       int           // elements per writer ingested during set-up
	ingestQueryEvery int           // elements a writer adds between queries
	queryPreload     int           // q-digest elements loaded during set-up
	queryPeriod      time.Duration // trickle writer schedule
	queryBatch       int           // elements per trickle batch
	churnLead        int           // live window: deletes trail inserts by this much
	churnSavePeriod  time.Duration // checkpoint schedule
	setupReps        int           // set-ups per untraced run; setup_s is their median
	ladderKLL        int           // ladder input lengths per family
	ladderQDigest    int
	ladderDyadic     int
	ladderReps       int // repetitions per ladder rung, median reported
	ladderProbes     int // queries per ladder query rung, median reported
}

var fullSizes = sizes{
	ingestStream:     1<<20 - 37,
	ingestWarm:       1 << 21,
	ingestQueryEvery: 1 << 17,
	queryPreload:     1 << 18,
	queryPeriod:      25 * time.Millisecond,
	queryBatch:       32,
	churnLead:        1 << 18,
	churnSavePeriod:  500 * time.Millisecond,
	setupReps:        9,
	ladderKLL:        1 << 20,
	ladderQDigest:    1 << 17,
	ladderDyadic:     1 << 16,
	ladderReps:       3,
	ladderProbes:     15,
}

// Metric registry. gatedE2E are the end-to-end metrics BENCHMARK.json
// bounds; every workload reports all of them. printedE2E are reported
// only where they apply (see NOTES.md). layerMetrics come from traced
// runs.
type mdef struct{ name, unit string }

var gatedE2E = []mdef{
	{"setup_s", "s"},
	{"ingest_melems_s", "Melem/s"},
	{"ingest_p50_us", "us"},
	{"ingest_p90_us", "us"},
	{"query_per_s", "1/s"},
	{"query_p50_us", "us"},
	{"query_p90_us", "us"},
	{"space_kb", "KiB"},
}

var printedE2E = []mdef{
	{"ingest_p99_us", "us"},
	{"query_p99_us", "us"},
	{"trickle_p50_us", "us"},
	{"trickle_p90_us", "us"},
	{"trickle_p99_us", "us"},
	{"trickle_p999_us", "us"},
	{"ingest_p999_us", "us"},
	{"query_p999_us", "us"},
	{"save_ms", "ms"},
	{"recover_ms", "ms"},
	{"ops_failed_frac", "1"},
}

var layerMetrics = []mdef{
	{"max_err_eps", "eps"},
	{"avg_err_eps", "eps"},
	{"kll.update_ns", "ns"},
	{"kll.update_batch_ns", "ns"},
	{"kll.query_cold_us", "us"},
	{"kll.space_bytes", "bytes"},
	{"qdigest.update_ns", "ns"},
	{"qdigest.query_cold_us", "us"},
	{"dyadic.insert_ns", "ns"},
	{"dyadic.delete_ns", "ns"},
	{"dyadic.query_cold_us", "us"},
	{"safe.update_ns", "ns"},
	{"safe.query_cold_us", "us"},
	{"snapshot.query_warm_us", "us"},
	{"snapshot.cold_share", "%"},
	{"sharded.p1_update_ns", "ns"},
	{"sharded.writer_update_ns", "ns"},
	{"sharded.flush_p50_us", "us"},
	{"sharded.flush_p99_us", "us"},
	{"sharded.flushes", "count"},
	{"sharded.p1_query_cold_us", "us"},
	{"sharded.query_cold_us", "us"},
	{"sharded.query_warm_us", "us"},
	{"sharded.reshard_ms", "ms"},
	{"sharded.drain_max_us", "us"},
	{"sharded.marshal_ms", "ms"},
	{"sharded.shard_marshal_max_us", "us"},
	{"sharded.unmarshal_ms", "ms"},
	{"sharded.generations", "count"},
	{"sharded.components", "count"},
	{"sharded.eps_budget", "1"},
	{"checkpoint.write_ms", "ms"},
	{"checkpoint.read_ms", "ms"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.skipped", "count"},
	{"gen.late_ms", "ms"},
	{"trace.overhead", "%"},
	{"share.kll", "%"},
	{"share.qdigest", "%"},
	{"share.dyadic", "%"},
	{"share.safe_snapshot", "%"},
	{"share.sharded", "%"},
	{"share.checkpoint", "%"},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, l := range [][]mdef{gatedE2E, printedE2E, layerMetrics} {
		for _, d := range l {
			m[d.name] = d.unit
		}
	}
	return m
}()

// metric is one measured value with its sample count (0 when it is not
// a statistic over samples).
type metric struct {
	value   float64
	samples int
}

// results collects a run's metrics and its correctness gate.
type results struct {
	gate gate
	m    map[string]metric
	// rate is the workload's headline throughput, compared between the
	// untraced and traced runs for trace.overhead.
	rate  float64
	notes []string
}

func newResults() *results { return &results{m: map[string]metric{}} }

func (r *results) set(name string, v float64, samples int) {
	if _, ok := units[name]; !ok {
		panic("e2ebench: unregistered metric " + name)
	}
	r.m[name] = metric{v, samples}
}

// setLat records p50, p90, p99 and p999 of l under prefix, over the
// samples of its quiet windows. p999 is reported only when at least ten
// samples lie beyond it; p99 always is, with a note when it has fewer.
func (r *results) setLat(prefix string, l *lat) {
	n := l.n()
	if n == 0 {
		return
	}
	r.set(prefix+"_p50_us", l.pct(50), n)
	r.set(prefix+"_p90_us", l.pct(90), n)
	r.set(prefix+"_p99_us", l.pct(99), n)
	if tailPct(n) < 99 {
		r.note("%s_p99_us rests on %d samples, fewer than ten beyond it", prefix, n)
	}
	if tailPct(n) >= 99.9 {
		r.set(prefix+"_p999_us", l.pct(99.9), n)
	}
}

// quietNote records how many of a live phase's windows were quiet.
func (r *results) quietNote(phase string, m *meter) {
	q, full := m.quietWindows()
	r.note("%s: %d of %d windows of %v quiet (reference computation within %gx of its best, %.0f ns)", phase, q, full, window, quietSlack, m.best)
}

func (r *results) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps a workload name to its runner: set up (reps times,
// setup_s is the median), run live for seconds, then check at the
// barrier. t is nil for an untraced run.
var workloads = map[string]func(cfg *config, t *tracer, seconds float64, reps int) *results{
	"ingest": runIngest,
	"query":  runQuery,
	"churn":  runChurn,
}

// procs is the benchmark's GOMAXPROCS. The 2-CPU VMs the baselines come
// from give two hyperthreads of one core: a sort slows by 1.3-1.6x
// while the sibling is busy. With a second processor the library's
// fan-out workers and the collector ran on the sibling, churn lost 25%
// of its throughput, and every figure depended on the sibling's load;
// on one processor their work is in line, counted in the operation
// that caused it.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "ingest, query or churn")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run with per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.sz = fullSizes
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload ingest|query|churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	cfg.workDir = dir
	cfg.traceFile = filepath.Join(".bench_build", "trace-"+cfg.workload+".csv")
	res := run(&cfg)
	os.RemoveAll(dir)
	if err := report(os.Stdout, &cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run as configured.
func run(cfg *config) *results {
	w := workloads[cfg.workload]
	if !cfg.trace {
		return w(cfg, nil, cfg.seconds, cfg.sz.setupReps)
	}
	// Traced run: the same workload untraced and traced, half the time
	// each, each from a fresh set-up; then the ladder.
	base := w(cfg, nil, cfg.seconds/2, 1)
	t := newTracer(1 << 20)
	res := w(cfg, t, cfg.seconds/2, 1)
	res.gate.add(&base.gate)
	res.set("trace.overhead", 100*(base.rate-res.rate)/base.rate, 0)
	self := t.selfTimes()
	var busy int64
	for _, s := range self {
		busy += s
	}
	for i, l := range layerNames {
		res.set(shareNames[l], 100*float64(self[i])/float64(max(busy, 1)), 0)
	}
	if t.dropped > 0 {
		res.note("trace: %d spans dropped past the %d-span limit", t.dropped, t.limit)
	}
	if err := t.write(cfg.traceFile); err != nil {
		res.note("trace: write %s: %v", cfg.traceFile, err)
	} else {
		res.note("trace: %d spans written to %s", len(t.spans), cfg.traceFile)
	}
	runLadder(cfg, res)
	return res
}

// report prints the stamp, every metric by name and unit, and the final
// JSON line.
func report(out io.Writer, cfg *config, res *results) error {
	st := stamp()
	fmt.Fprintf(out, "stamp workload=%s seed=%d seconds=%g trace=%v %s\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, st)
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(out, "note: GOMAXPROCS=1 — the library's fan-out workers share the benchmark's core; no figure here is a scaling figure")
	}
	for _, n := range res.notes {
		fmt.Fprintln(out, "note:", n)
	}
	for _, msg := range res.gate.msgs {
		fmt.Fprintln(out, "FAIL:", msg)
	}
	att := max(res.gate.attempted, 1)
	res.set("ops_failed_frac", float64(res.gate.failed)/float64(att), int(att))
	names := make([]string, 0, len(res.m))
	for n := range res.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.m[n]
		fmt.Fprintf(out, "metric %-30s %14.6g %-8s samples=%d\n", n, m.value, units[n], m.samples)
	}
	want := gatedE2E
	if cfg.trace {
		want = layerMetrics
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	js := map[string]jm{}
	var missing []string
	for _, d := range want {
		m, ok := res.m[d.name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			missing = append(missing, d.name)
			continue
		}
		js[d.name] = jm{m.value, d.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.gate.failed == 0, att, res.gate.failed, js})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}
