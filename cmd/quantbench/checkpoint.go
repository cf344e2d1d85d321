package main

import (
	"time"

	"streamquantiles/internal/checkpoint"
	"streamquantiles/internal/core"
	"streamquantiles/internal/faultio"
	"streamquantiles/internal/gk"
	"streamquantiles/internal/kll"
	"streamquantiles/internal/sharded"
)

// The checkpoint mode measures the durability path: how fast a sharded
// container saves (per-shard fan-out marshal + framed write) and
// recovers (pipelined frame verification + fan-out decode), swept over
// worker counts P = 1/4/16/64 (param) at a fixed 64-shard topology.
// Rates normalize the wall time by the n elements the container
// summarizes, so they are comparable across ops and containers. The
// "save" and "recover" rates are gated on their scaling efficiency at
// the highest P (see report.go): on a 1-core runner that measures pure
// fan-out overhead (the pool runs inline), on a 4-core runner a 0.75
// floor demands ≥ 3x the sequential rate.

// checkpointWorkerCounts is the sweep the issue pins: sequential plus
// three fan-out widths bracketing any plausible core count.
var checkpointWorkerCounts = []int{1, 4, 16, 64}

// checkpointShards is the fixed topology: enough parts that every
// swept worker count has parallel work available.
const checkpointShards = 64

// checkpointCases are the container rosters: one mergeable family
// (KLL) and one whose shrink freezes rank components (GKArray) — the
// two shapes the fan-out dispatches.
var checkpointCases = []struct {
	name  string
	fresh func() core.CashRegister
}{
	{"kll", func() core.CashRegister { return kll.New(0.001, 7) }},
	{"gkarray", func() core.CashRegister { return gk.NewArray(0.001) }},
}

// measureCheckpoint runs one full save/recover sweep.
func measureCheckpoint(data []uint64, rs *rows) {
	for _, tc := range checkpointCases {
		s, err := sharded.NewCashRegister(checkpointShards, tc.fresh)
		if err != nil {
			fatalf("checkpoint: %v", err)
		}
		forBatches(data, ingestBatch, s.UpdateBatch)
		payload, err := s.MarshalBinaryWorkers(1)
		if err != nil {
			fatalf("checkpoint: %v", err)
		}
		for _, w := range checkpointWorkerCounts {
			rs.rate(tc.name, "save", w, measureSave(s, w))
			rs.rate(tc.name, "recover", w, measureRecover(tc.fresh, payload, w))
		}
	}
}

// measureSave times one full durable save — fan-out marshal plus the
// framed, checksummed write — into an in-memory filesystem, so the
// measurement isolates the CPU path from device speed. Fastest of
// four — a single save is milliseconds, so extra trials are cheap and
// damp GC noise.
func measureSave(s *sharded.CashRegister, workers int) time.Duration {
	var best time.Duration
	for r := 0; r < 4; r++ {
		ck, err := checkpoint.Open("/bench", checkpoint.WithFS(faultio.NewMemFS()))
		if err != nil {
			fatalf("checkpoint: %v", err)
		}
		start := time.Now()
		blob, err := s.MarshalBinaryWorkers(workers)
		if err != nil {
			fatalf("checkpoint: %v", err)
		}
		if _, err := ck.Save("bench", blob); err != nil {
			fatalf("checkpoint: %v", err)
		}
		if el := time.Since(start); r == 0 || el < best {
			best = el
		}
	}
	return best
}

// measureRecover times one full recovery — candidate scan, pipelined
// CRC verification, fan-out decode into a fresh container. Fastest of
// four.
func measureRecover(fresh func() core.CashRegister, payload []byte, workers int) time.Duration {
	mem := faultio.NewMemFS()
	ck, err := checkpoint.Open("/bench", checkpoint.WithFS(mem))
	if err != nil {
		fatalf("checkpoint: %v", err)
	}
	if _, err := ck.Save("bench", payload); err != nil {
		fatalf("checkpoint: %v", err)
	}
	var best time.Duration
	for r := 0; r < 4; r++ {
		target, err := sharded.NewCashRegister(1, fresh)
		if err != nil {
			fatalf("checkpoint: %v", err)
		}
		start := time.Now()
		got, _, err := checkpoint.Recover(mem, "/bench", nil)
		if err != nil {
			fatalf("checkpoint: %v", err)
		}
		if err := target.UnmarshalBinaryWorkers(got, workers); err != nil {
			fatalf("checkpoint: %v", err)
		}
		if el := time.Since(start); r == 0 || el < best {
			best = el
		}
	}
	return best
}
