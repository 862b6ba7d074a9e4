#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build the load generator
# and the daemon from this checkout, then run the generator. Cargo
# rebuilds whatever changed, so the daemon is never a stale one.
#
#   bash perfbench/run.sh --workload slice-highcard --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh all | repeat --runs 5 | smoke | declare
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
target=${CARGO_TARGET_DIR:-$here/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
CARGO_TARGET_DIR=$target cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perfbench" \
    --server "$target/release/msketch-serve" \
    --out-dir "$target/perfbench-out" \
    --declared "$root/BENCHMARK.json" \
    "$@"
