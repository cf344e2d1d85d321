// Benchmarks regenerating the paper's evaluation: one target per figure
// and table (see DESIGN.md's experiment index), each wrapping the
// corresponding harness driver, plus end-to-end update-throughput
// benchmarks of every algorithm through the public API.
//
// The drivers run at laptop scale (n = 50 000 here; the paper used
// 10^7–10^10) — absolute numbers differ from the paper but the reported
// custom metrics (errors, space) preserve the comparative shapes. Run
// cmd/quantbench for larger, configurable reproductions.
package streamquantiles

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"streamquantiles/internal/harness"
	"streamquantiles/internal/streamgen"
)

func benchOpts() harness.Options {
	return harness.Options{N: 50_000, Seed: 1, Repeats: 1}
}

// reportFigure runs a harness driver once per iteration and surfaces a
// few representative measurements as custom benchmark metrics.
func reportFigure(b *testing.B, exp string) {
	b.Helper()
	var results []harness.Result
	for i := 0; i < b.N; i++ {
		results = harness.Run(exp, benchOpts())
	}
	if len(results) == 0 {
		b.Fatalf("%s produced no results", exp)
	}
	var maxErr, avgErr float64
	var space int64
	for _, r := range results {
		if r.MaxErr > maxErr {
			maxErr = r.MaxErr
		}
		avgErr += r.AvgErr
		if r.SpaceBytes > space {
			space = r.SpaceBytes
		}
	}
	b.ReportMetric(maxErr, "worst-max-err")
	b.ReportMetric(avgErr/float64(len(results)), "mean-avg-err")
	b.ReportMetric(float64(space), "max-space-bytes")
}

// Cash-register experiments (paper §4.2).

func BenchmarkFig5Error(b *testing.B) { reportFigure(b, harness.ExpFig5) }
func BenchmarkFig5Space(b *testing.B) { reportFigure(b, harness.ExpFig5) }
func BenchmarkFig5Time(b *testing.B)  { reportFigure(b, harness.ExpFig5) }

func BenchmarkFig6Universe(b *testing.B) { reportFigure(b, harness.ExpFig6) }
func BenchmarkFig7Length(b *testing.B)   { reportFigure(b, harness.ExpFig7) }
func BenchmarkFig8Order(b *testing.B)    { reportFigure(b, harness.ExpFig8) }

// Turnstile experiments (paper §4.3).

func BenchmarkTable3TuneD(b *testing.B)   { reportFigure(b, harness.ExpTable3) }
func BenchmarkTable4TuneD(b *testing.B)   { reportFigure(b, harness.ExpTable4) }
func BenchmarkFig9Eta(b *testing.B)       { reportFigure(b, harness.ExpFig9) }
func BenchmarkFig10Error(b *testing.B)    { reportFigure(b, harness.ExpFig10) }
func BenchmarkFig10Space(b *testing.B)    { reportFigure(b, harness.ExpFig10) }
func BenchmarkFig10Time(b *testing.B)     { reportFigure(b, harness.ExpFig10) }
func BenchmarkFig11Universe(b *testing.B) { reportFigure(b, harness.ExpFig11) }
func BenchmarkFig12Skew(b *testing.B)     { reportFigure(b, harness.ExpFig12) }

// Reproduction ablations (DESIGN.md).

func BenchmarkAblationGKImpl(b *testing.B)         { reportFigure(b, harness.ExpAblGK) }
func BenchmarkAblationDCSExactLevels(b *testing.B) { reportFigure(b, harness.ExpAblExact) }
func BenchmarkAblationPostFallback(b *testing.B)   { reportFigure(b, harness.ExpAblPostFB) }

// Extension experiments (DESIGN.md: beyond the paper's evaluation).

func BenchmarkExtBiased(b *testing.B) { reportFigure(b, harness.ExpExtBiased) }
func BenchmarkExtWindow(b *testing.B) { reportFigure(b, harness.ExpExtWindow) }
func BenchmarkExtKLL(b *testing.B)    { reportFigure(b, harness.ExpExtKLL) }

func BenchmarkUpdateKLL(b *testing.B)      { benchUpdates(b, NewKLL(0.001, 1)) }
func BenchmarkUpdateGKBiased(b *testing.B) { benchUpdates(b, NewGKBiased(0.001)) }

// BatchCashRegister/BatchTurnstile counterparts live next to their
// per-item versions below.

// End-to-end update throughput through the public API.

func benchUpdates(b *testing.B, s CashRegister) {
	b.Helper()
	data := streamgen.Generate(streamgen.Uniform{Bits: 32, Seed: 1}, 1<<16)
	b.SetBytes(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(data[i&(1<<16-1)])
	}
	b.ReportMetric(float64(s.SpaceBytes()), "space-bytes")
}

// benchUpdatesBatch feeds the same cyclic stream through the native
// batch path in benchBatchSize-element batches; per-element cost is
// directly comparable with benchUpdates (both set 8 bytes/op).
const benchBatchSize = 4096

func benchUpdatesBatch(b *testing.B, s BatchCashRegister) {
	b.Helper()
	data := streamgen.Generate(streamgen.Uniform{Bits: 32, Seed: 1}, benchBatchSize)
	b.SetBytes(8)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += benchBatchSize {
		take := b.N - done
		if take > benchBatchSize {
			take = benchBatchSize
		}
		s.UpdateBatch(data[:take])
	}
	b.ReportMetric(float64(s.SpaceBytes()), "space-bytes")
}

func BenchmarkUpdateGKAdaptive(b *testing.B) { benchUpdates(b, NewGKAdaptive(0.001)) }
func BenchmarkUpdateGKTheory(b *testing.B)   { benchUpdates(b, NewGKTheory(0.001)) }
func BenchmarkUpdateGKArray(b *testing.B)    { benchUpdates(b, NewGKArray(0.001)) }
func BenchmarkUpdateQDigest(b *testing.B)    { benchUpdates(b, NewQDigest(0.001, 32)) }
func BenchmarkUpdateMRL99(b *testing.B)      { benchUpdates(b, NewMRL99(0.001, 1)) }
func BenchmarkUpdateRandom(b *testing.B)     { benchUpdates(b, NewRandom(0.001, 1)) }

func BenchmarkUpdateBatchGKAdaptive(b *testing.B) { benchUpdatesBatch(b, NewGKAdaptive(0.001)) }
func BenchmarkUpdateBatchGKTheory(b *testing.B)   { benchUpdatesBatch(b, NewGKTheory(0.001)) }
func BenchmarkUpdateBatchGKArray(b *testing.B)    { benchUpdatesBatch(b, NewGKArray(0.001)) }
func BenchmarkUpdateBatchGKBiased(b *testing.B)   { benchUpdatesBatch(b, NewGKBiased(0.001)) }
func BenchmarkUpdateBatchQDigest(b *testing.B)    { benchUpdatesBatch(b, NewQDigest(0.001, 32)) }
func BenchmarkUpdateBatchMRL99(b *testing.B)      { benchUpdatesBatch(b, NewMRL99(0.001, 1)) }
func BenchmarkUpdateBatchRandom(b *testing.B)     { benchUpdatesBatch(b, NewRandom(0.001, 1)) }
func BenchmarkUpdateBatchKLL(b *testing.B)        { benchUpdatesBatch(b, NewKLL(0.001, 1)) }

func benchInserts(b *testing.B, s Turnstile) {
	b.Helper()
	data := streamgen.Generate(streamgen.Uniform{Bits: 32, Seed: 1}, 1<<16)
	b.SetBytes(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(data[i&(1<<16-1)])
	}
	b.ReportMetric(float64(s.SpaceBytes()), "space-bytes")
}

func benchInsertsBatch(b *testing.B, s BatchTurnstile) {
	b.Helper()
	data := streamgen.Generate(streamgen.Uniform{Bits: 32, Seed: 1}, benchBatchSize)
	b.SetBytes(8)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += benchBatchSize {
		take := b.N - done
		if take > benchBatchSize {
			take = benchBatchSize
		}
		s.InsertBatch(data[:take])
	}
	b.ReportMetric(float64(s.SpaceBytes()), "space-bytes")
}

func BenchmarkInsertDCM(b *testing.B) { benchInserts(b, NewDCM(0.001, 32, DyadicConfig{Seed: 1})) }
func BenchmarkInsertDCS(b *testing.B) { benchInserts(b, NewDCS(0.001, 32, DyadicConfig{Seed: 1})) }

func BenchmarkInsertBatchDCM(b *testing.B) {
	benchInsertsBatch(b, NewDCM(0.001, 32, DyadicConfig{Seed: 1}))
}
func BenchmarkInsertBatchDCS(b *testing.B) {
	benchInsertsBatch(b, NewDCS(0.001, 32, DyadicConfig{Seed: 1}))
}
func BenchmarkInsertBatchDRSS(b *testing.B) {
	benchInsertsBatch(b, NewDRSS(0.001, 32, DyadicConfig{Seed: 1}))
}

// BenchmarkShardedUpdateBatch measures the sharded write path itself
// (single goroutine — scaling across writers is
// `cmd/quantbench -bench ingest` territory).
func BenchmarkShardedUpdateBatch(b *testing.B) {
	s := mustShardedCash(b, 4, func() CashRegister { return NewGKArray(0.001) })
	benchUpdatesBatch(b, s)
}

// BenchmarkParallelIngest drives W concurrent writer handles into a
// W-shard container (one affinity shard per writer) for the buffered
// mergeable families — the multi-core scaling the sharded layer exists
// for. On a ≥4-core runner the writers=4 case should sustain ≥3x the
// writers=1 throughput; `cmd/quantbench -bench parallel` measures the
// same shape and `make bench-compare` gates it against
// BENCH_parallel.json.
func BenchmarkParallelIngest(b *testing.B) {
	families := []struct {
		name  string
		fresh func() CashRegister
	}{
		{"kll", func() CashRegister { return NewKLL(0.001, 7) }},
		{"mrl99", func() CashRegister { return NewMRL99(0.001, 7) }},
		{"gkarray", func() CashRegister { return NewGKArray(0.001) }},
	}
	writerCounts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		writerCounts = append(writerCounts, p)
	}
	data := streamgen.Generate(streamgen.Uniform{Bits: 32, Seed: 1}, 1<<16)
	for _, f := range families {
		for _, wn := range writerCounts {
			b.Run(fmt.Sprintf("%s/writers=%d", f.name, wn), func(b *testing.B) {
				s := mustShardedCash(b, wn, f.fresh)
				b.SetBytes(8)
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N / wn
				for w := 0; w < wn; w++ {
					n := per
					if w == 0 {
						n = b.N - per*(wn-1)
					}
					wg.Add(1)
					go func(n int) {
						defer wg.Done()
						h := s.AcquireWriter()
						defer h.Close()
						for i := 0; i < n; i++ {
							h.Update(data[i&(1<<16-1)])
						}
					}(n)
				}
				wg.Wait()
			})
		}
	}
}

func BenchmarkQuantileGKArray(b *testing.B) {
	s := NewGKArray(0.001)
	data := streamgen.Generate(streamgen.Uniform{Bits: 32, Seed: 1}, 1<<18)
	for _, x := range data {
		s.Update(x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Quantile(0.99)
	}
}

func BenchmarkPostProcessDCS(b *testing.B) {
	s := NewDCS(0.01, 24, DyadicConfig{Seed: 1})
	data := streamgen.Generate(streamgen.MPCATLike{Seed: 1}, 1<<17)
	for _, x := range data {
		s.Insert(x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PostProcess(s, 0)
	}
}
