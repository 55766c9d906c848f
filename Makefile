# Developer entry points. `make ci` is what the CI workflow's test job runs
# (CI additionally runs staticcheck and a bench smoke pass).

GO ?= go

.PHONY: all build test race race-cpus vet staticcheck bench bench-check allocs-smoke profile experiments ci resume-check fuzz-smoke load-smoke chaos-smoke scale-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The concurrency-sensitive packages again under the race detector at
# 1, 2 and 4 CPUs: ordering bugs (progress records, swap pinning, the
# mapped reader's first-touch bitmap, truncation under load) can hide at
# the runner's own core count.
CPU_SWEEP_PKGS = ./internal/core ./internal/par ./internal/serve ./internal/router ./internal/dataset

race-cpus:
	$(GO) test -race -cpu 1,2,4 $(CPU_SWEEP_PKGS)

vet:
	$(GO) vet ./...

# Requires staticcheck on PATH (CI installs it; locally:
# go install honnef.co/go/tools/cmd/staticcheck@latest).
staticcheck:
	staticcheck ./...

# One iteration of every benchmark, parsed into BENCH.json (name → ns/op,
# allocs/op, and any custom metrics such as BenchmarkChaos registry totals).
# benchjson is built ahead of the run: `go run` in the pipe would compile
# it concurrently with the first benchmarks and skew their timings.
bench:
	@mkdir -p .bin
	$(GO) build -o .bin/benchjson ./cmd/benchjson
	$(GO) test -bench . -benchmem -benchtime 1x -run '^$$' . | ./.bin/benchjson -o BENCH.json

# Regression gate: rerun the benchmarks and fail when any committed
# BENCH.json entry regressed beyond the thresholds (generous on ns/op
# because shared runners are noisy; tight on B/op because allocation
# counts are deterministic).
bench-check:
	@mkdir -p .bin
	$(GO) build -o .bin/benchjson ./cmd/benchjson
	$(GO) test -bench . -benchmem -benchtime 1x -run '^$$' . | \
		./.bin/benchjson -o /dev/null -compare BENCH.json \
		-max-regress 100 -max-regress-bytes 25 -max-regress-allocs 25

# Hard zero-allocation gate of the serving hot path (DESIGN.md §3.10):
# a steady-state /lookup — pin, parse, resolve, render, write — and a
# steady-state fault-guarded GEODSET2 lookup must perform zero heap
# allocations per request. Run by name: the percentage-based bench-check gate cannot
# express "still exactly zero", so a new allocation sneaking into the
# hot path fails THIS target, not a trend threshold.
allocs-smoke:
	$(GO) test -count 1 -run 'TestServeAllocs|TestMappedLookupAllocs' \
		./internal/serve ./internal/dataset

# CPU + heap profiles of the costliest analysis benchmark (Fig 2a drives
# ~58k CBG locates through the sampling kernels). Inspect with
# `go tool pprof profiles/fig2a.cpu.pprof`.
profile:
	mkdir -p profiles
	$(GO) test -bench 'Fig2a' -benchtime 1x -run '^$$' \
		-cpuprofile profiles/fig2a.cpu.pprof -memprofile profiles/fig2a.mem.pprof .
	@echo "profiles written to profiles/fig2a.{cpu,mem}.pprof"

experiments:
	$(GO) run ./cmd/experiments -scale tiny -out results

# Resume equivalence (DESIGN.md §3.3): run a tiny campaign uninterrupted,
# run it again with a checkpoint journal and die abruptly (exit 3) after 40
# journaled batches, resume from the journal, and require the matrix
# digests and platform/client stats to match byte for byte — under both
# the none and realistic fault profiles.
resume-check:
	rm -rf .resume-check && mkdir -p .resume-check
	$(GO) build -o .resume-check/exp ./cmd/experiments
	set -e; for prof in none realistic; do \
		./.resume-check/exp -scale tiny -run table1 -faults $$prof \
			-digest .resume-check/$$prof.base -q >/dev/null; \
		rc=0; ./.resume-check/exp -scale tiny -run table1 -faults $$prof \
			-checkpoint-dir .resume-check/$$prof -kill-after-batches 40 -q >/dev/null || rc=$$?; \
		test $$rc -eq 3; \
		./.resume-check/exp -scale tiny -run table1 -faults $$prof \
			-checkpoint-dir .resume-check/$$prof -resume \
			-digest .resume-check/$$prof.resumed -q >/dev/null; \
		diff .resume-check/$$prof.base .resume-check/$$prof.resumed; \
		echo "resume-check($$prof): digests identical"; \
	done
	rm -rf .resume-check

# Load + metrics proof of the serving tier (DESIGN.md §3.6–3.7):
# geobench drives a seeded hit/miss/garbage mix against a live geoserve
# and renders a strict verdict. Run 1 hot-swaps the artifact mid-run and
# requires a clean ledger — zero dropped requests, zero off-design
# statuses, a swap-generation bump — AND, via -metrics-check, scrapes
# GET /metrics before and after: the exposition must lint clean, the
# server's data-plane status counters must move by exactly the client
# ledger, and geoserve_swaps_total must record the swap. Run 2 aims 64
# closed-loop workers at a server admitted down to 2 inflight slots
# under the degraded fault profile and requires overload to degrade to
# designed 429s with bounded p999, not collapse.
load-smoke:
	rm -rf .load-smoke && mkdir -p .load-smoke
	$(GO) build -o .load-smoke/geoserve ./cmd/geoserve
	$(GO) build -o .load-smoke/geobench ./cmd/geobench
	./.load-smoke/geoserve -scale tiny -unsanitized -write .load-smoke/a.geodset
	./.load-smoke/geoserve -scale tiny -write .load-smoke/b.geodset
	set -e; \
	./.load-smoke/geoserve -dataset .load-smoke/a.geodset -addr 127.0.0.1:18080 \
		-admin-token smoke -log-level warn & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null' EXIT; \
	./.load-smoke/geobench -addr http://127.0.0.1:18080 \
		-dataset .load-smoke/a.geodset -wait-ready 15s \
		-requests 4000 -workers 8 \
		-swap-after 2000 -swap-to .load-smoke/b.geodset -admin-token smoke \
		-metrics-check -strict -out .load-smoke/swap.json
	set -e; \
	./.load-smoke/geoserve -dataset .load-smoke/a.geodset -addr 127.0.0.1:18081 \
		-faults degraded -max-inflight 2 -max-queue 4 -queue-timeout 50ms \
		-log-level warn & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null' EXIT; \
	./.load-smoke/geobench -addr http://127.0.0.1:18081 \
		-dataset .load-smoke/a.geodset -wait-ready 15s \
		-requests 2000 -workers 64 \
		-expect-shed -allow-503 -max-p999-ms 5000 \
		-strict -out .load-smoke/overload.json
	rm -rf .load-smoke

# Replica-chaos proof of the routed fleet (DESIGN.md §3.8): geoserve
# -router runs a 4-replica fleet behind the prefix-sharded router and
# geobench -chaos kills the HOT replica (the one owning the artifact's
# range) mid-run through /admin/replica, then revives it. Run 1
# (replication 2, hedging on) requires the crash to be fully absorbed:
# zero dropped requests, zero 503s, at least one failed-over or
# hedge-won answer, and — via -metrics-check — the router's
# georouter_failovers/hedge_wins counters moving by EXACTLY the sums the
# client saw in its response headers. Run 2 (replication 1) proves the
# bounded failure domain: the outage degrades ONLY the victim's prefix
# range, as fast 503s with Retry-After confined to the kill→readmission
# window — never a hang, never a drop.
chaos-smoke:
	rm -rf .chaos-smoke && mkdir -p .chaos-smoke
	$(GO) build -o .chaos-smoke/geoserve ./cmd/geoserve
	$(GO) build -o .chaos-smoke/geobench ./cmd/geobench
	./.chaos-smoke/geoserve -scale tiny -unsanitized -write .chaos-smoke/a.geodset
	set -e; \
	./.chaos-smoke/geoserve -dataset .chaos-smoke/a.geodset -addr 127.0.0.1:18090 \
		-router -replicas 4 -replication 2 -hedge -probe-interval 50ms \
		-admin-token smoke -log-level warn & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null' EXIT; \
	./.chaos-smoke/geobench -addr http://127.0.0.1:18090 \
		-dataset .chaos-smoke/a.geodset -wait-ready 15s \
		-requests 4000 -workers 8 \
		-chaos -kill-after 1000 -restart-after 2200 -admin-token smoke \
		-expect-failover -metrics-check -strict -out .chaos-smoke/failover.json
	set -e; \
	./.chaos-smoke/geoserve -dataset .chaos-smoke/a.geodset -addr 127.0.0.1:18091 \
		-router -replicas 4 -replication 1 -probe-interval 50ms \
		-admin-token smoke -log-level warn & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null' EXIT; \
	./.chaos-smoke/geobench -addr http://127.0.0.1:18091 \
		-dataset .chaos-smoke/a.geodset -wait-ready 15s \
		-requests 4000 -workers 8 \
		-chaos -kill-after 1000 -restart-after 2200 -admin-token smoke \
		-expect-503 -metrics-check -strict -out .chaos-smoke/degraded.json
	rm -rf .chaos-smoke

# Streaming-scale proof (DESIGN.md §3.9–3.10): external-merge compile a
# 50k /24 campaign in bounded windows into a block-indexed GEODSET2,
# convert it to a GEODSET1 of the same records (geoserve -write), then
# serve both formats — the GEODSET1 decoded into RAM, the GEODSET2
# straight out of its mapping — driving the SAME seeded strict geobench
# pass against each. The two runs' status ledgers must be
# byte-identical: the formats carry the same records, so any divergence
# in answers is a bug in one read path. The bench materializes the
# GEODSET2 as its client-side oracle, so hit/miss classification also
# exercises the v2 decode path end to end.
scale-smoke:
	rm -rf .scale-smoke && mkdir -p .scale-smoke
	$(GO) build -o .scale-smoke/exp ./cmd/experiments
	$(GO) build -o .scale-smoke/geoserve ./cmd/geoserve
	$(GO) build -o .scale-smoke/geobench ./cmd/geobench
	./.scale-smoke/exp -scale 50000 -checkpoint-dir .scale-smoke/spill \
		-artifact .scale-smoke/stream.geodset2 -q
	./.scale-smoke/geoserve -dataset .scale-smoke/stream.geodset2 \
		-write .scale-smoke/stream.geodset -log-level warn
	set -e; \
	./.scale-smoke/geoserve -dataset .scale-smoke/stream.geodset \
		-addr 127.0.0.1:18070 -log-level warn & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null' EXIT; \
	./.scale-smoke/geobench -addr http://127.0.0.1:18070 \
		-dataset .scale-smoke/stream.geodset2 -wait-ready 15s \
		-requests 3000 -workers 8 \
		-strict -out .scale-smoke/v1.json
	set -e; \
	./.scale-smoke/geoserve -dataset .scale-smoke/stream.geodset2 \
		-addr 127.0.0.1:18071 -log-level warn & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null' EXIT; \
	./.scale-smoke/geobench -addr http://127.0.0.1:18071 \
		-dataset .scale-smoke/stream.geodset2 -wait-ready 15s \
		-requests 3000 -workers 8 \
		-strict -out .scale-smoke/v2.json
	sed -n '/"statuses"/,/}/p' .scale-smoke/v1.json > .scale-smoke/v1.ledger
	sed -n '/"statuses"/,/}/p' .scale-smoke/v2.json > .scale-smoke/v2.ledger
	diff .scale-smoke/v1.ledger .scale-smoke/v2.ledger
	@echo "scale-smoke: GEODSET1 and GEODSET2 ledgers identical"
	rm -rf .scale-smoke

# Short coverage-guided fuzz of the binary decoders — the checkpoint
# journal and both dataset artifact generations (their seed corpora also
# run as plain tests in `make test`).
fuzz-smoke:
	$(GO) test -fuzz FuzzDecoder -fuzztime 10s -run '^$$' ./internal/checkpoint
	$(GO) test -fuzz FuzzDatasetDecoder -fuzztime 10s -run '^$$' ./internal/dataset
	$(GO) test -fuzz FuzzDataset2Decoder -fuzztime 10s -run '^$$' ./internal/dataset

ci: vet build race race-cpus
