#!/usr/bin/env bash
# Benchmark-package smoke lane. `benchmark/` is a standalone cargo package
# (its own workspace), so `cargo build --workspace` never compiles it: an
# API change in the crates it drives could break it unnoticed.
#
# Gates:
#   * the package builds and its self-tests pass (seed reproducibility,
#     and each correctness check failing on doctored input);
#   * every workload runs for about 2 s and its result line (the last
#     line of stdout) says `"correct": true` — bit-identity to the
#     sequential reference for the socket workloads, zero violations for
#     the query workload.
#
# Read-only with respect to benchmark/: it only builds and runs it. Run
# scratch (durable stores, span dumps) goes to the ignored .bench_out/.
set -euo pipefail
cd "$(dirname "$0")/.."

MANIFEST=benchmark/Cargo.toml

echo "==> benchmark package: build"
cargo build --offline --release --manifest-path "$MANIFEST"

echo "==> benchmark package: self-tests"
cargo test --offline --release --manifest-path "$MANIFEST"

for workload in socket_lockstep socket_durable query_feedback; do
    echo "==> $workload (2 s)"
    out=$(cargo run --offline --release --quiet --manifest-path "$MANIFEST" -- \
        --workload "$workload" --seconds 2 --trace 0)
    result=$(printf '%s\n' "$out" | tail -n 1)
    echo "$result"
    if [[ "$result" != *'"correct": true'* ]]; then
        echo "ci/benchmark_smoke.sh: $workload did not report \"correct\": true" >&2
        exit 1
    fi
done

echo "ci/benchmark_smoke.sh: OK"
