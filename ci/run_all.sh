#!/usr/bin/env bash
# Local dry-run of the full CI pipeline — the same scripts the workflow
# jobs execute, in the same order. Green here means green in CI (modulo
# runner wall-clock, which the regression tolerances absorb).
set -euo pipefail
cd "$(dirname "$0")"

./check.sh
./docs.sh
./proptest_seeds.sh
./bench_gate.sh
./net_smoke.sh
./chaos_smoke.sh
./elastic_smoke.sh
./benchmark_smoke.sh
./tables_gate.sh
# Informational native-codegen lane; never gates (runner CPUs vary).
./bench_native.sh || echo "bench_native: non-gating failure ignored"
echo "ci/run_all.sh: full pipeline OK"
