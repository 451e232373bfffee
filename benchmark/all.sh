#!/usr/bin/env bash
# Every workload, untraced then traced: prints each metric as
# `workload metric value unit` and saves <out-dir>/<workload>.json
# (end-to-end) and <workload>.trace.json (per-layer), stamped with the git
# revision, core count and compiler gathered here.
#
#   benchmark/all.sh [--seed N] [--seconds S] [--out-dir DIR]
#
# Exits non-zero as soon as a run fails a check. Two sets made with
# different --out-dir are judged by `snn-benchmark compare A/ B/`.
set -euo pipefail
HERE="$(cd "$(dirname "$0")" && pwd)"
cd "$HERE/.."

SEED=1
SECONDS_PER_RUN="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
OUT="$HERE/out"
while [[ $# -gt 0 ]]; do
    case "$1" in
        --seed) SEED="$2" ;;
        --seconds) SECONDS_PER_RUN="$2" ;;
        --out-dir) OUT="$2" ;;
        *) echo "usage: benchmark/all.sh [--seed N] [--seconds S] [--out-dir DIR]" >&2; exit 2 ;;
    esac
    shift 2
done

META=(--meta "git_rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
      --meta "host_cores=$(nproc 2>/dev/null || echo 1)"
      --meta "rustc=$(rustc --version | cut -d' ' -f2)")

for TRACE in 0 1; do
    for WORKLOAD in pipeline-dense pipeline-conv pipeline-recurrent campaign-dense cluster-dense; do
        # The last line is the machine-readable result; the rest is the table.
        bash "$HERE/run.sh" --workload "$WORKLOAD" --seed "$SEED" --seconds "$SECONDS_PER_RUN" \
            --trace "$TRACE" --out-dir "$OUT" "${META[@]}" | sed '$d'
    done
done
