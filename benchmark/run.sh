#!/usr/bin/env bash
# The benchmark command of BENCHMARK.json: builds the harness offline
# (a no-op after the first run in a checkout) and measures one workload.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# The last line of standard output is the result object. Results, the
# trace of a traced run and scratch files go to benchmark/out/. Build
# output goes to $CARGO_TARGET_DIR when set, else to benchmark/target/.
set -euo pipefail
HERE="$(cd "$(dirname "$0")" && pwd)"
cd "$HERE/.."

TARGET="${CARGO_TARGET_DIR:-$HERE/target}"
cargo build --release --offline --quiet --manifest-path "$HERE/Cargo.toml" --target-dir "$TARGET" >&2
exec "$TARGET/release/snn-benchmark" run --out-dir "$HERE/out" "$@"
