package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"strings"
	"testing"
)

var modeNames = []string{"ingest", "query", "parallel", "checkpoint"}

func readBaseline(t *testing.T, mode string) *report {
	t.Helper()
	rep, err := readReport("../../BENCH_" + mode + ".json")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != mode {
		t.Fatalf("BENCH_%s.json has mode %q", mode, rep.Mode)
	}
	return rep
}

// TestGateParity recomputes every gate of the committed baselines and
// checks name, baseline ratio and floor against testdata/gates.golden,
// which pins the 49 gates (11 ingest, 26 query, 8 parallel, 4
// checkpoint) the baselines have always enforced.
func TestGateParity(t *testing.T) {
	var got strings.Builder
	for _, mode := range modeNames {
		rep := readBaseline(t, mode)
		for _, g := range rep.gates() {
			label := g.gate
			if g.param > 0 {
				label = fmt.Sprintf("%s@%d", g.gate, g.param)
			}
			fmt.Fprintf(&got, "%s %s %s %.2f %.2f\n", mode, g.name, label, g.ratio, g.ratio*(1-compareTol))
		}
		if err := compare(io.Discard, rep, rep); err != nil {
			t.Errorf("%s baseline fails its own compare: %v", mode, err)
		}
	}
	want, err := os.ReadFile("testdata/gates.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("gates differ from testdata/gates.golden\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestCompareFailsClosed: a compare that cannot check every baseline
// gate is a failure, not a pass.
func TestCompareFailsClosed(t *testing.T) {
	ingest := readBaseline(t, "ingest")
	noKLL := *ingest
	noKLL.Rows = nil
	for _, x := range ingest.Rows {
		if x.Name != "kll" {
			noKLL.Rows = append(noKLL.Rows, x)
		}
	}
	var empty report
	if err := json.Unmarshal([]byte(`{"n":1}`), &empty); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		old, cur *report
		want     string
	}{
		{"missing gate", ingest, &noKLL, "1 of 11 gates missing or regressed"},
		{"baseline without gates", &empty, &empty, "yields no gates"},
		{"mode mismatch", readBaseline(t, "parallel"), readBaseline(t, "checkpoint"), "\"parallel\" report"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := compare(&out, tc.old, tc.cur)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("compare error = %v, want one containing %q\n%s", err, tc.want, out.String())
			}
		})
	}
}

// TestMergeIsConservative merges jittered passes of every mode's row
// layout and checks that each merged ratio — every gate, plus the
// ungated sharded ingest scaling rate(P)/rate(1) — is at most the same
// ratio in every single pass.
func TestMergeIsConservative(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, mode := range modeNames {
		base := readBaseline(t, mode)
		var passes []*report
		merged := &report{Mode: mode, GOMAXPROCS: 4}
		for p := 0; p < 5; p++ {
			pass := &report{Mode: mode, GOMAXPROCS: 4}
			for _, x := range base.Rows {
				x.Value *= 0.5 + rng.Float64()
				pass.Rows = append(pass.Rows, x)
			}
			passes = append(passes, pass)
			if p == 0 {
				merged.Rows = append([]row(nil), pass.Rows...)
			} else {
				merged.merge(pass.Rows)
			}
		}
		ratios := func(r *report) map[string]float64 {
			m := map[string]float64{}
			for _, g := range r.gates() {
				m[g.name+" "+g.gate] = g.ratio
			}
			p1 := map[string]float64{}
			for _, x := range r.Rows {
				if strings.HasPrefix(x.Name, "sharded/") && x.Op == "batch" {
					if x.Param == 1 {
						p1[x.Name] = x.rate()
					}
					m[fmt.Sprintf("%s scaling@%d", x.Name, x.Param)] = x.rate() / p1[x.Name]
				}
			}
			return m
		}
		got := ratios(merged)
		if len(got) == 0 {
			t.Fatalf("%s: no ratios", mode)
		}
		for i, pass := range passes {
			for k, r := range ratios(pass) {
				if got[k] > r {
					t.Errorf("%s %s: merged ratio %.4f above pass %d's %.4f", mode, k, got[k], i, r)
				}
			}
		}
	}
}

func sweep(gomaxprocs int, op string, rates map[int]float64) *report {
	r := &report{Mode: "parallel", GOMAXPROCS: gomaxprocs, NumCPU: gomaxprocs}
	for p := 1; p <= 64; p++ {
		if v, ok := rates[p]; ok {
			r.Rows = append(r.Rows, row{"kll", op, p, v, unitRate})
		}
	}
	return r
}

// TestScalingGateUsesHighestParam: each side's efficiency is taken at
// its own highest param, so a baseline swept to NumCPU = 4 gates a
// fresh report swept to NumCPU = 8 at W = 8.
func TestScalingGateUsesHighestParam(t *testing.T) {
	old := sweep(4, "write", map[int]float64{1: 10, 2: 18, 4: 32})
	good := sweep(8, "write", map[int]float64{1: 10, 2: 18, 4: 32, 8: 60})
	bad := sweep(8, "write", map[int]float64{1: 10, 2: 18, 4: 32, 8: 40})

	g := old.gates()
	if len(g) != 1 || g[0].param != 4 || g[0].ratio != 0.8 {
		t.Fatalf("baseline gates = %+v, want write at 4 = 0.8", g)
	}
	if g := good.gates(); len(g) != 1 || g[0].param != 8 || g[0].ratio != 0.75 {
		t.Fatalf("fresh gates = %+v, want write at 8 = 0.75", g)
	}
	if err := compare(io.Discard, old, good); err != nil {
		t.Errorf("0.75 at 8 vs floor 0.60: %v", err)
	}
	if err := compare(io.Discard, old, bad); err == nil {
		t.Error("0.50 at 8 vs floor 0.60 passed")
	}
}

// TestEfficiencyClamped: superlinear scaling records 1.0, not more.
func TestEfficiencyClamped(t *testing.T) {
	for _, maxprocs := range []int{1, 4} {
		g := sweep(maxprocs, "write", map[int]float64{1: 10, 4: 100}).gates()
		if len(g) != 1 || g[0].ratio != 1 {
			t.Errorf("GOMAXPROCS=%d: gates = %+v, want efficiency 1", maxprocs, g)
		}
	}
}

// TestCompareTolerance: a speedup 26% below the baseline fails, 24%
// below passes.
func TestCompareTolerance(t *testing.T) {
	speedup := func(batch float64) *report {
		return &report{Mode: "ingest", Rows: []row{
			{"kll", "item", 0, 1, unitRate},
			{"kll", "batch", 0, batch, unitRate},
		}}
	}
	old := speedup(4)
	if err := compare(io.Discard, old, speedup(4*0.74)); err == nil {
		t.Error("26% regression passed")
	}
	if err := compare(io.Discard, old, speedup(4*0.76)); err != nil {
		t.Errorf("24%% regression failed: %v", err)
	}
}

// TestMeasuredRowsMatchBaselines runs the cheap modes on a tiny stream
// and checks that they emit every gate their committed baseline has.
func TestMeasuredRowsMatchBaselines(t *testing.T) {
	for _, mode := range []string{"ingest", "parallel", "checkpoint"} {
		data := make([]uint64, 4096)
		for i := range data {
			data[i] = uint64(i*7919) % (1 << 24)
		}
		rs := rows{n: len(data)}
		benchModes[mode].measure(data, &rs)
		cur := &report{Mode: mode, GOMAXPROCS: 1, Rows: rs.list}
		base := readBaseline(t, mode)
		want := map[[2]string]bool{}
		for _, g := range base.gates() {
			want[g.key()] = true
		}
		for _, g := range cur.gates() {
			delete(want, g.key())
		}
		if len(want) > 0 {
			t.Errorf("%s: measured pass lacks baseline gates %v", mode, want)
		}
	}
}
