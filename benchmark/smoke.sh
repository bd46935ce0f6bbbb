#!/usr/bin/env bash
# Builds the benchmark and runs every workload with --smoke (0.1 s slices,
# 5 000-transaction log, 100-schedule corpus), and the traced run of one
# workload without and one with a WAL: every correctness check on, numbers
# not comparable.  Under 30 s once built.  Exits non-zero when any run
# fails its checks.  For CI to call; run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/mvcc-benchmark"

for workload in uniform hot paced wal-buffered wal-fsync restart classify; do
    echo "== $workload"
    "$bin" run --workload "$workload" --smoke | tail -n 1
done
for workload in uniform wal-buffered; do
    echo "== $workload --trace 1"
    "$bin" run --workload "$workload" --smoke --trace 1 | tail -n 1
done
echo "smoke: all workloads passed their checks"
