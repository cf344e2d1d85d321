package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeSizes shrink every workload so a run takes well under a second
// of live time even under the race detector.
var smokeSizes = sizes{
	ingestStream:     1 << 12,
	ingestWarm:       1 << 12,
	ingestQueryEvery: 1 << 11,
	queryPreload:     1 << 12,
	queryPeriod:      10 * time.Millisecond,
	queryBatch:       16,
	churnLead:        1 << 11,
	churnSavePeriod:  100 * time.Millisecond,
	setupReps:        2,
	ladderKLL:        1 << 12,
	ladderQDigest:    1 << 11,
	ladderDyadic:     1 << 10,
	ladderReps:       1,
	ladderProbes:     3,
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkDecl reads the metric declarations of BENCHMARK.json at the
// checkout root.
func benchmarkDecl(t *testing.T) (e2e, layer []declared) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	return decl.EndToEnd, decl.PerLayer
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that the final JSON line names every declared metric with its
// unit and that the correctness gate passed.
func TestSmoke(t *testing.T) {
	e2e, layer := benchmarkDecl(t)
	for _, w := range []string{"ingest", "query", "churn"} {
		for _, trace := range []bool{false, true} {
			name := w
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := &config{workload: w, seed: 7, seconds: 0.5, trace: trace,
					workDir: dir, traceFile: filepath.Join(dir, "trace.csv"), sz: smokeSizes}
				var out bytes.Buffer
				if err := report(&out, cfg, run(cfg)); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool  `json:"correct"`
					Attempted int64 `json:"attempted"`
					Failed    int64 `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("gate: correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := e2e
				if trace {
					want = layer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s unit %q, declared %q", d.Name, m.Unit, d.Unit)
					}
				}
			})
		}
	}
}
