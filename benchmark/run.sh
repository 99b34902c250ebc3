#!/usr/bin/env bash
# Build the benchmark (offline, release, a package of its own) and run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (BENCHMARK.json's command)
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]              all six workloads, untraced + traced
#   benchmark/run.sh --compare A.json B.json                         two results of the line above
#
# Runs from the checkout root whatever the caller's directory. The build
# goes to $CARGO_TARGET_DIR when the caller sets it, else benchmark/target.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build output goes to stderr: a run's last stdout line is its result.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
bin="$target/release/sr-benchmark"

case "${1:-}" in
    --compare)
        shift
        exec "$bin" compare "$@"
        ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done
exec "$bin" suite "$@"
