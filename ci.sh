#!/bin/sh
# The tier-1 gate, runnable on a machine with no network and no registry
# cache: the workspace has zero external dependencies, so --offline --locked
# must always succeed. Benches are compiled (not run) to keep them honest.
set -eu
cd "$(dirname "$0")"

# Static-analysis gate first: the panic-freedom ratchet (lint-baseline.toml),
# lock-discipline audit, determinism lint, hermeticity scan, and the three
# interprocedural passes (lock-rank propagation, blocking-in-event-loop,
# panic reachability). Policy lives in lint.toml; a non-zero exit fails CI
# before any test runs.
cargo run -p rased-lint --release --offline --locked -- --workspace
# Same run again in machine-readable form, saved as a CI artifact for trend
# tooling (the binary is already built, so this only re-scans sources).
cargo run -p rased-lint --release --offline --locked -- --workspace --format=json \
    > lint-findings.json

cargo build --workspace --release --offline --locked --all-targets
# The benchmark package (rasedbench/, its own workspace) calls the index,
# core and dashboard APIs directly; building and testing it here turns an
# API break into a CI failure instead of a benchmark-pipeline failure.
cargo test --release --offline --locked --manifest-path rasedbench/Cargo.toml
cargo test --workspace -q --offline --locked

# The HTTP serving-tier battery re-runs under an explicit wall-clock budget:
# a hang in the worker pool, keep-alive loop, or shutdown path must fail CI
# as a timeout, not stall it forever.
timeout 300 cargo test -q --offline --locked \
    --test http_parser --test http_api --test concurrency --test failure_injection

# Parallel-executor gate: the dettest equivalence suite (parallel at every
# thread count ≡ sequential ≡ record-scan oracle) and a smoke run of the
# Fig. 11 scaling harness, including its single-flight stampede check.
timeout 300 cargo test -q --offline --locked -p rased-query --test parallel_props
BENCH_MEASURE_MS=20 timeout 120 ./target/release/fig11_parallel_scaling

# Streaming write-path gate: the crash-recovery replay fuzz (WAL truncated
# at every byte boundary vs. a never-crashed oracle), epoch isolation under
# a racing rebuild_month, and a smoke run of the Fig. 12 ingest-under-load
# harness.
timeout 300 cargo test -q --offline --locked -p rased-core --test crash_recovery
timeout 300 cargo test -q --offline --locked -p rased-query --test epoch_isolation
BENCH_MEASURE_MS=20 timeout 120 ./target/release/fig12_ingest_under_load

# Response-cache gate: the cache-equivalence property suite (cached tier
# byte-identical to cold renders across epoch bumps), once with dettest's
# per-run seed and once replaying a pinned seed — the pinned run proves
# DETTEST_SEED replay stays wired end-to-end, not just documented.
timeout 300 cargo test -q --offline --locked --test respcache_props
DETTEST_SEED=20260808 timeout 120 cargo test -q --offline --locked --test respcache_props

# Serving-SLO gate: the workload-generator property suite, then a smoke run
# of the Fig. 13 closed-loop load harness. The harness exits non-zero on any
# SLO violation — uncapped p99, an inert admission controller (overload must
# shed cheap 503s, not collapse latency), a non-503 5xx, a stalled live
# stream, or a response cache that is inert, byte-divergent, or no faster
# than a cold render — so this line *is* the regression gate, not just a
# build check.
timeout 300 cargo test -q --offline --locked -p rased-bench --test workload_props
BENCH_MEASURE_MS=20 timeout 120 ./target/release/fig13_slo_load

# Sharded-store gate: the scatter-gather equivalence suite (sharded at
# every shard count x thread count == single store == record-scan oracle,
# including under a concurrent publisher), per-shard WAL crash containment
# (a torn tail in one shard must not cost the others a single unit), and a
# smoke run of the Fig. 14 shard-scaling harness. The harness exits
# non-zero if a country-filtered query reads a non-owning shard or the
# fan-out pool shows no speedup at 4 shards, so it is a routing regression
# gate, not just a build check.
timeout 300 cargo test -q --offline --locked -p rased-query --test shard_props
timeout 300 cargo test -q --offline --locked -p rased-index --test shard_recovery
BENCH_MEASURE_MS=20 timeout 120 ./target/release/fig14_shard_scaling

# Spatial-lattice gate: the geo primitive property suite (grid cover
# exactness, bbox algebra), the lattice equivalence suite (banked viewport
# == grid scan == record-scan oracle, under publishes and ragged covers),
# and a smoke run of the Fig. 15 viewport harness. The harness exits
# non-zero if banked and scanned rows diverge, a single-band viewport
# reads a foreign band, a marked day falls back to a scan, the month
# roll-up never engages, or the warm block cache fails to beat the
# grid-scan baseline's modeled I/O — so this line is the spatial routing
# and planner regression gate. It appends BENCH_fig15.json to its scratch
# dir in smoke mode (full runs refresh the committed copy).
timeout 300 cargo test -q --offline --locked -p rased-geo --test geo_props
timeout 300 cargo test -q --offline --locked -p rased-query --test lattice_props
BENCH_MEASURE_MS=20 timeout 120 ./target/release/fig15_viewport

# Cross-commit bench trajectory gate: the two most recent committed
# BENCH_fig13.json points must not show an order-of-magnitude collapse in
# qps or p99 (loose tolerances absorb hardware noise; see the bin's docs).
./target/release/bench_compare
