package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"streamquantiles/internal/streamgen"
)

// The bench modes (-bench ingest|query|parallel|checkpoint) share one
// engine. Each mode's measurement loop only emits raw rows; everything
// around it — the report schema, the conservative merge over -runs
// passes, the derived ratios, the -compare gate and the reader — lives
// here and is driven by the mode's gate table. The committed
// BENCH_<mode>.json files at the repo root are the baselines.
//
// Only ratios are gated: absolute Melem/s and µs depend on the machine,
// but "batching buys k×", "the snapshot cache buys m×" and "W writers
// run W× as fast on W cores" are properties of the code. Two gate
// kinds:
//
//   - speedup: a numerator op over a denominator op of the same
//     (name, param), both read as rates (µs rows invert), e.g. ingest
//     batch/item or query cached/per_phi.
//   - scaling: one op swept over param (writer or worker count), gated
//     on its efficiency at the report's highest param k:
//
//	efficiency(k) = rate(k) / (rate(1) × min(k, GOMAXPROCS))
//
// Efficiency is normalized to the measuring machine's cores, so one
// committed baseline gates a 1-core container (every k measures pure
// fan-out or handle overhead, ≈ 1.0) and a 4-core runner (a 0.75 floor
// at k = 4 demands ≥ 3× the k = 1 rate) alike. It is clamped at 1.0:
// splitting a stream across k shards makes each summary smaller, and
// for families with superlinear compaction cost that alone can push the
// ratio past 1, which would set floors no honestly scaling machine
// could clear.

const (
	// benchN is the default stream length of a bench pass.
	benchN = 2_000_000
	// compareTol is the fractional drop below a baseline ratio that
	// -compare tolerates.
	compareTol = 0.25
	// Row units. Rates are better higher, latencies lower.
	unitRate = "Melem/s"
	unitUs   = "us"
)

// report is the schema of every BENCH_<mode>.json.
type report struct {
	Mode       string `json:"mode"`
	N          int    `json:"n"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"goversion"`
	Workload   string `json:"workload"`
	Rows       []row  `json:"rows"`
}

// row is one raw measurement. Param is the shard, writer or worker
// count of a swept op, 0 for unswept ones.
type row struct {
	Name  string  `json:"name"`
	Op    string  `json:"op"`
	Param int     `json:"param"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type rowKey struct {
	name, op string
	param    int
}

func (x row) key() rowKey { return rowKey{x.Name, x.Op, x.Param} }

// rate reads the row as a rate, higher is better: µs rows invert.
func (x row) rate() float64 {
	if x.Unit == unitUs {
		return 1 / x.Value
	}
	return x.Value
}

// gate is one entry of a mode's gate table: the speedup num/den, or,
// with den empty, the scaling efficiency of num.
type gate struct{ num, den string }

// benchModes maps each -bench mode to its gate table and measurement
// loop.
var benchModes = map[string]struct {
	gates   []gate
	measure func(data []uint64, rs *rows)
}{
	"ingest":     {[]gate{{"batch", "item"}}, measureIngest},
	"query":      {[]gate{{"batch", "per_phi"}, {"cached", "per_phi"}, {"hot", "cold"}}, measureQuery},
	"parallel":   {[]gate{{num: "write"}}, measureParallel},
	"checkpoint": {[]gate{{num: "save"}, {num: "recover"}}, measureCheckpoint},
}

// rows collects one measurement pass. It prints nothing while the pass
// runs (runBench echoes the rows afterwards): output between two timed
// loops perturbs the next one, and the µs-scale cached and hot query
// paths are sensitive enough for that to show in their gates.
type rows struct {
	n    int // elements per timed pass, for the Melem/s rates
	list []row
}

func (rs *rows) add(name, op string, param int, value float64, unit string) {
	rs.list = append(rs.list, row{name, op, param, value, unit})
}

// rate records el as the rate of streaming n elements.
func (rs *rows) rate(name, op string, param int, el time.Duration) {
	rs.add(name, op, param, float64(rs.n)/el.Seconds()/1e6, unitRate)
}

// micros records el in microseconds.
func (rs *rows) micros(name, op string, param int, el time.Duration) {
	rs.add(name, op, param, el.Seconds()*1e6, unitUs)
}

// runBench measures mode runs times over one generated stream, keeps
// the conservative merge of the passes and writes the report to out
// (stdout when empty). CI runs once; the committed baselines use
// several runs so their ratios lower-bound a typical run.
func runBench(mode string, n, runs int, out string) {
	m, ok := benchModes[mode]
	if !ok {
		fatalf("unknown -bench %q (want ingest, query, parallel or checkpoint)", mode)
	}
	if n <= 0 {
		n = benchN
	}
	gen := streamgen.Uniform{Bits: 24, Seed: 1}
	data := streamgen.Generate(gen, n)
	rep := &report{
		Mode:       mode,
		N:          n,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Workload:   gen.Name(),
	}
	for r := 0; r < max(runs, 1); r++ {
		if r > 0 {
			fmt.Fprintf(os.Stderr, "-- run %d/%d --\n", r+1, runs)
		}
		rs := rows{n: n}
		m.measure(data, &rs)
		for _, x := range rs.list {
			fmt.Fprintf(os.Stderr, "%-16s %-8s %4d %14.3f %s\n", x.Name, x.Op, x.Param, x.Value, x.Unit)
		}
		if r == 0 {
			rep.Rows = rs.list
		} else {
			rep.merge(rs.list)
		}
	}
	for _, g := range rep.gates() {
		fmt.Fprintf(os.Stderr, "%-16s %-14s %s\n", g.name, g.gate, g.show())
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("%s: %v", mode, err)
	}
	blob = append(blob, '\n')
	if out == "" || out == "-" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		fatalf("%s: %v", mode, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
}

// isBase reports whether x is the base of a ratio: a speedup gate's
// denominator, or param 1 of any sweep.
func (r *report) isBase(x row) bool {
	if x.Param == 1 {
		return true
	}
	for _, g := range benchModes[r.Mode].gates {
		if g.den == x.Op {
			return true
		}
	}
	return false
}

// merge folds pass b into r conservatively: a base row keeps its best
// value, every other row its worst. Every ratio of the merged report
// thus lower-bounds the same ratio in each pass, so a baseline recorded
// with -runs > 1 sets floors a typical CI pass clears even when one of
// its passes landed on a throttled scheduler slice.
func (r *report) merge(b []row) {
	bBy := map[rowKey]row{}
	for _, x := range b {
		bBy[x.key()] = x
	}
	for i, x := range r.Rows {
		if o, ok := bBy[x.key()]; ok && (o.rate() > x.rate()) == r.isBase(x) {
			r.Rows[i].Value = o.Value
		}
	}
}

// gateValue is one gate evaluated on one report.
type gateValue struct {
	name, gate string  // e.g. "kll" and "batch/item", or "kll" and "save"
	param      int     // scaling gates: the highest param, where efficiency was taken
	ratio      float64 // speedup or efficiency
}

func (g gateValue) key() [2]string { return [2]string{g.name, g.gate} }

func (g gateValue) show() string {
	if g.param > 0 {
		return fmt.Sprintf("%.2f at %d", g.ratio, g.param)
	}
	return fmt.Sprintf("%.2fx", g.ratio)
}

// gates evaluates the mode's gate table on r, in row order. A gate
// whose rows are incomplete (no denominator, no param 1 row) is absent,
// which -compare treats as a failure when the baseline has it.
func (r *report) gates() []gateValue {
	by := map[rowKey]row{}
	top := map[[2]string]int{}
	for _, x := range r.Rows {
		by[x.key()] = x
		k := [2]string{x.Name, x.Op}
		top[k] = max(top[k], x.Param)
	}
	var out []gateValue
	for _, x := range r.Rows {
		for _, g := range benchModes[r.Mode].gates {
			if g.num != x.Op {
				continue
			}
			if g.den != "" {
				if d, ok := by[rowKey{x.Name, g.den, x.Param}]; ok {
					out = append(out, gateValue{x.Name, g.num + "/" + g.den, 0, x.rate() / d.rate()})
				}
				continue
			}
			b, ok := by[rowKey{x.Name, x.Op, 1}]
			if x.Param != top[[2]string{x.Name, x.Op}] || !ok {
				continue
			}
			cores := float64(max(min(x.Param, r.GOMAXPROCS), 1))
			out = append(out, gateValue{x.Name, g.num, x.Param, min(x.rate()/(b.rate()*cores), 1)})
		}
	}
	return out
}

// compare checks every gate of the baseline old against the fresh
// report cur, one line per gate to w. It fails closed: differing modes,
// a baseline without gates, a baseline gate the fresh report lacks and
// a ratio more than compareTol below the baseline's are all errors.
// Gates only the fresh report has are printed as NEW and pass.
func compare(w io.Writer, old, cur *report) error {
	if old.Mode != cur.Mode {
		return fmt.Errorf("baseline is a %q report, fresh one a %q report", old.Mode, cur.Mode)
	}
	base := old.gates()
	if len(base) == 0 {
		return fmt.Errorf("baseline yields no gates (mode %q)", old.Mode)
	}
	curGates := cur.gates()
	fresh := map[[2]string]gateValue{}
	for _, g := range curGates {
		fresh[g.key()] = g
	}
	failed := 0
	for _, o := range base {
		floor := o.ratio * (1 - compareTol)
		g, ok := fresh[o.key()]
		delete(fresh, o.key())
		switch {
		case !ok:
			failed++
			fmt.Fprintf(w, "%-16s %-14s MISSING   baseline %s (floor %.2f)\n", o.name, o.gate, o.show(), floor)
			continue
		case !(g.ratio >= floor):
			failed++
			fmt.Fprintf(w, "%-16s %-14s REGRESSED", o.name, o.gate)
		default:
			fmt.Fprintf(w, "%-16s %-14s ok       ", o.name, o.gate)
		}
		fmt.Fprintf(w, " %s vs baseline %s (floor %.2f)\n", g.show(), o.show(), floor)
	}
	for _, g := range curGates {
		if _, ok := fresh[g.key()]; ok {
			fmt.Fprintf(w, "%-16s %-14s NEW       %s (no baseline)\n", g.name, g.gate, g.show())
		}
	}
	if failed > 0 {
		return fmt.Errorf("%s: %d of %d gates missing or regressed more than %.0f%%",
			old.Mode, failed, len(base), compareTol*100)
	}
	return nil
}

func readReport(path string) (*report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// runCompare is -compare old.json new.json: exit 1 unless every
// baseline gate holds.
func runCompare(oldPath, newPath string) {
	old, err := readReport(oldPath)
	if err != nil {
		fatalf("compare: %v", err)
	}
	cur, err := readReport(newPath)
	if err != nil {
		fatalf("compare: %v", err)
	}
	if err := compare(os.Stdout, old, cur); err != nil {
		fatalf("compare: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "quantbench: "+format+"\n", args...)
	os.Exit(1)
}
