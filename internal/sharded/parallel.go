// Parallel fan-out: the one worker pool of the package. The codec
// dispatches per-shard marshal and decode work through it, and the
// query path's fold and merge tree (query.go) their per-shard and
// per-pair merges: GOMAXPROCS-bounded, work-stealing over an atomic
// cursor, calling goroutine participating, every spawned goroutine
// joined before return.
package sharded

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// fanout runs fn(0 … n−1) on a worker pool of min(workers, GOMAXPROCS,
// n) goroutines; workers ≤ 0 means GOMAXPROCS. It collects errors:
// with more than one worker every index runs to completion (a failed
// shard does not cancel its siblings — each holds its own lock for a
// bounded, small amount of work), all spawned goroutines are joined on
// every path, and the error at the lowest index wins, so the result is
// deterministic regardless of scheduling and identical to what the
// sequential left-to-right loop a single worker runs would report.
func fanout(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := runtime.GOMAXPROCS(0)
	if workers > 0 && workers < w {
		w = workers
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for g := 1; g < w; g++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
