# Convenience targets for the streamquantiles reproduction.

GO ?= go

.PHONY: all verify build test race lint lint-strict loc check crash stress-smoke e2e-smoke fuzz bench bench-all bench-baselines bench-ingest bench-query bench-parallel parallel-smoke bench-checkpoint checkpoint-smoke bench-compare experiments report html clean

all: build test lint

# The umbrella gate CI runs: build + vet, the test suite, the race
# detector, strict quantlint (all 15 rules, waived findings inventoried),
# the sqcheck deep-sanitizer pass, a seeded quantstress soak, the
# end-to-end benchmark smoke and the multi-writer scaling and
# checkpoint fan-out efficiency smokes.
verify: build test lint-strict race check stress-smoke e2e-smoke parallel-smoke checkpoint-smoke

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# The harness package re-runs the paper experiments under the race
# detector, which alone takes ~7-8 minutes on a small container —
# raise the per-package timeout above go test's 10m default so the
# parallel package mix doesn't trip it.
race:
	$(GO) test -race -timeout 30m ./...

# Repo-specific static analysis (rules SQ001-SQ015); see cmd/quantlint.
lint:
	$(GO) run ./cmd/quantlint ./...

# As lint, but also prints the findings waived by //lint:ignore
# directives so the suppression inventory stays reviewable.
lint-strict:
	$(GO) run ./cmd/quantlint -strict ./...

# Deep invariant checking: the sqcheck build tag arms the runtime
# sanitizer inside the test suite's samplers.
check:
	$(GO) test -tags sqcheck ./...

# Fault-injected crash recovery: the full matrix (every registered
# summary x torn write / bit flip / short read / transient EIO), the
# checkpoint and fault-injection packages, and the kill -9 CLI resume
# test, all under -race with the sqcheck sanitizer armed.
crash:
	$(GO) test -race -tags sqcheck -run 'TestCrashRecovery' -v -count=1 .
	$(GO) test -race -tags sqcheck -count=1 ./internal/checkpoint/ ./internal/faultio/
	$(GO) test -race -count=1 -run 'TestKillNineResume|TestSaveLoad|TestResume' ./cmd/quantcli/
	$(GO) test -race -count=1 -run 'TestKillNineResume|TestShortSoakFaults' ./cmd/quantstress/

# Seeded elasticity soak: mixed read/write traffic with online
# reshards, a re-ε rebuild, checkpointing under injected faults and
# recovery drills, asserting rank-error bounds, count conservation and
# structural invariants throughout. Deterministic per seed, so a
# failure reproduces from the printed flags; the race-built pass drives
# the same shape through the race detector.
STRESS_OPS ?= 60000
# The drain bound asserts the elastic protocol's promise: ingestion
# stalls for at most one shard's drain, and no single drain may take
# seconds at smoke scale even on a loaded shared runner.
STRESS_DRAIN_MAX ?= 2s
# The checkpoint bound asserts the save path's stop-the-shard promise:
# a save stalls ingestion for at most one shard's marshal, never the
# whole container's, so no single per-shard marshal may take seconds.
STRESS_CKPT_MAX ?= 2s
stress-smoke:
	$(GO) build -o /tmp/sq_quantstress ./cmd/quantstress
	/tmp/sq_quantstress -algo kll -bits 14 -ops $(STRESS_OPS) -dist zipf -reshard 6,3 -retarget-eps 0.02 -ckpt-dir /tmp/sq_stress_ck -ckpt-every 20000 -faults -verify-every 30000 -slo-drain-max $(STRESS_DRAIN_MAX) -slo-checkpoint-max $(STRESS_CKPT_MAX)
	/tmp/sq_quantstress -algo mrl99 -bits 14 -ops $(STRESS_OPS) -dist uniform -reshard 6 -verify-every 30000 -slo-drain-max $(STRESS_DRAIN_MAX)
	/tmp/sq_quantstress -algo dcs -bits 12 -ops $(STRESS_OPS) -dist ooo -reshard 5,2 -verify-every 30000 -slo-drain-max $(STRESS_DRAIN_MAX)
	rm -rf /tmp/sq_stress_ck
	$(GO) run -race ./cmd/quantstress -algo gkarray -bits 14 -ops 30000 -dist zipf -reshard 5 -retarget-eps 0.02
	$(GO) test -race -count=1 -run 'TestShortSoak|TestKillNineResume' ./cmd/quantstress/

# End-to-end benchmark smoke: the e2ebench module (its own go.mod,
# building the library from this checkout) runs every workload tiny,
# untraced and traced, under the race detector, and asserts every
# declared metric and a passing correctness gate. Its shardedC
# interface pins the public sharded surface the workloads drive.
e2e-smoke:
	cd e2ebench && $(GO) test -race ./...

# Short live-fuzz session over the decoder harnesses (the seed corpus
# alone runs as part of `make test`).
fuzz:
	$(GO) test -fuzz=FuzzDecodeMutated -fuzztime=60s -run FuzzDecodeMutated .
	$(GO) test -fuzz=FuzzDecode -fuzztime=60s -run FuzzDecode ./internal/freqsketch/

bench:
	$(GO) test -bench=. -benchmem ./...

# Benchmark baselines and gates. `quantbench -bench <mode>` measures one
# mode into the shared report schema (raw Melem/s and µs rows, no
# stored ratios); `quantbench -compare` derives the mode's gated ratios
# and fails if any drops more than 25% below the committed
# BENCH_<mode>.json, or if a baseline gate is missing. The modes:
#   ingest      per-item vs batched updates for every summary (gated on
#               batch/item) and sharded writers at P = 1, 2, 4, 8;
#   query       per-phi vs single-pass batched vs snapshot-cached
#               extraction (gated on batch/per_phi and cached/per_phi)
#               and the sharded fold cache (gated on hot/cold);
#   parallel    W writer handles feeding a W-shard container at
#               W = 1, 2, 4, NumCPU;
#   checkpoint  save and recover of a 64-shard container at fan-out
#               worker counts P = 1, 4, 16, 64.
# parallel and checkpoint gate on scaling efficiency at the highest
# count, rate(k) / (rate(1) x min(k, GOMAXPROCS)): on a 1-core machine
# that checks pure overhead, on a 4-core runner a 0.75 floor demands
# >= 3x the k = 1 rate. Only ratios are gated; absolute rates are
# machine-bound.
BENCH_MODES := ingest query parallel checkpoint

# Refresh the committed baselines: several passes per mode, merged
# conservatively (each ratio's base keeps its best pass, the rest their
# worst), so every recorded ratio lower-bounds a typical single pass.
BENCH_N ?= 2000000
BENCH_RUNS ?= 3
bench-baselines: $(addprefix bench-,$(BENCH_MODES))
bench-ingest bench-query bench-parallel bench-checkpoint:
	$(GO) run ./cmd/quantbench -bench $(@:bench-%=%) -n $(BENCH_N) -runs $(BENCH_RUNS) -out BENCH_$(@:bench-%=%).json

# Regression gate, the one source of what CI gates: bench-check-<mode>
# re-measures one pass of <mode> and compares it against the committed
# baseline; bench-compare runs all four (CI runs it with -k so every
# compare runs and every fresh report lands in $(BENCH_OUT)). Reduced n,
# except query, which omits -n and so runs at quantbench's default
# bench n, the n its baseline was recorded at: the cached speedup grows
# with n (per-phi cost is O(s), a cached hit O(log s)).
BENCH_OUT ?= /tmp/sq_bench
COMPARE_N ?= 500000
bench-compare: $(addprefix bench-check-,$(BENCH_MODES))
bench-all: bench-compare
bench-check-%:
	@mkdir -p $(BENCH_OUT)
	$(GO) run ./cmd/quantbench -bench $* $(if $(filter query,$*),,-n $(COMPARE_N)) -out $(BENCH_OUT)/$*.json
	$(GO) run ./cmd/quantbench -compare BENCH_$*.json $(BENCH_OUT)/$*.json

# The scaling-efficiency smokes of `make verify`: the same recipe as
# bench-compare, for the multi-writer and checkpoint fan-out modes.
parallel-smoke: bench-check-parallel
checkpoint-smoke: bench-check-checkpoint

# Regenerate EXPERIMENTS.md (several minutes at the default n).
experiments:
	$(GO) run ./cmd/quantbench -all -format markdown > EXPERIMENTS.md

# Self-contained HTML results page.
html:
	$(GO) run ./cmd/quantbench -all -format html > results.html

# Code lines per package: the non-blank, non-comment lines of its
# non-test Go files (the count CHANGES.md quotes), then the total.
loc:
	@total=0; for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		n=$$(ls $$d/*.go | grep -v '_test\.go$$' | xargs cat | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l); \
		total=$$((total + n)); printf '%6d %s\n' $$n .$${d#$(CURDIR)}; \
	done; printf '%6d total\n' $$total

clean:
	$(GO) clean ./...
	rm -f results.html test_output.txt bench_output.txt
