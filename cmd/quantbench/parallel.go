package main

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"streamquantiles/internal/core"
	"streamquantiles/internal/sharded"
)

// The parallel mode measures multi-core write-path scaling through the
// per-goroutine writer handles: W writers (param), each with its own
// AcquireWriter handle, feed a W-shard container element-at-a-time —
// the placement the sharded layer was built for — and each summary's
// aggregate "write" rate is gated on its scaling efficiency at the
// highest W (see report.go).

// parallelWriterCounts is the sweep: 1, 2, 4 and NumCPU, deduplicated
// and sorted (on a 1–4 core machine NumCPU folds into the fixed tiers).
func parallelWriterCounts() []int {
	set := map[int]bool{1: true, 2: true, 4: true, runtime.NumCPU(): true}
	var counts []int
	for w := range set {
		counts = append(counts, w)
	}
	sort.Ints(counts)
	return counts
}

// measureParallel runs one writer-count sweep over the eight cash
// summaries.
func measureParallel(data []uint64, rs *rows) {
	counts := parallelWriterCounts()
	for _, tc := range ingestCash {
		for _, w := range counts {
			rs.rate(tc.name, "write", w, measureHandles(data, w, tc.fresh))
		}
	}
}

// measureHandles times w writer goroutines, each driving its 1/w slice
// of data element-at-a-time through its own writer handle into a
// fresh w-shard container (slots are issued round-robin, so the w
// handles land on w distinct shards). Fastest of two runs, like
// measure().
func measureHandles(data []uint64, w int, fresh func() core.CashRegister) time.Duration {
	var best time.Duration
	for r := 0; r < 2; r++ {
		s, err := sharded.NewCashRegister(w, fresh)
		if err != nil {
			panic(err)
		}
		per := len(data) / w
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < w; i++ {
			lo, hi := i*per, (i+1)*per
			if i == w-1 {
				hi = len(data)
			}
			wg.Add(1)
			go func(part []uint64) {
				defer wg.Done()
				h := s.AcquireWriter()
				defer h.Close()
				for _, x := range part {
					h.Update(x)
				}
			}(data[lo:hi])
		}
		wg.Wait()
		if el := time.Since(start); r == 0 || el < best {
			best = el
		}
	}
	return best
}
