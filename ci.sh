#!/usr/bin/env bash
# Repository CI gate. Run from the repo root:
#
#   ./ci.sh          # full gate: build, tests, formatting, lints
#   ./ci.sh quick    # tier-1 only: release build + tests
#
# All steps run offline (dependencies are vendored under vendor/).

set -euo pipefail
cd "$(dirname "$0")"

step() { echo; echo "==> $*"; }

# The address a backgrounded `serve` logged to $1 once it listens (it was
# given port 0); empty if it has not come up within 10 s.
listen_addr_of() {
    local addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on \([0-9.:]*\) .*/\1/p' "$1")"
        [[ -n "$addr" ]] && break
        sleep 0.1
    done
    echo "$addr"
}

step "cargo build --release"
cargo build --release --offline

step "cargo test -q"
cargo test -q --offline --workspace

if [[ "${1:-full}" == "quick" ]]; then
    echo; echo "quick gate passed."
    exit 0
fi

step "line budget — non-test Rust lines"
# Every crates/*/src/**/*.rs and src/*.rs, each up to its first
# `#[cfg(test)]` line. "Net negative" is then a diff of this number: a
# change that needs more lines raises LINE_BUDGET in its own diff.
LINE_BUDGET=21010
RUST_LINES="$(find crates/*/src src/*.rs -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { n++ }
    END { print n + 0 }')"
echo "non-test Rust lines: $RUST_LINES (budget $LINE_BUDGET)"
(( RUST_LINES <= LINE_BUDGET )) \
    || { echo "non-test Rust lines exceed the budget by $(( RUST_LINES - LINE_BUDGET ))"; exit 1; }

step "vendored stand-ins match vendor/SHA256SUMS, and every vendored file is listed there"
sha256sum -c --quiet vendor/SHA256SUMS
diff <(find vendor -type f ! -name SHA256SUMS | LC_ALL=C sort) \
    <(awk '{ print $2 }' vendor/SHA256SUMS | LC_ALL=C sort) \
    || { echo "vendor/ holds files vendor/SHA256SUMS does not list (or lists files it lacks)"; exit 1; }

step "example networks — the three shapes of the paper's benchmarks, half pruned, analysed"
ANALYZE_TMP="$(mktemp -d)"
trap 'rm -rf "$ANALYZE_TMP"' EXIT
cargo run --release -q --offline -- new --input 2x16x16 --arch pool:2,dense:48,dense:10 \
    --sparsity 0.5 --out "$ANALYZE_TMP/nmnist.snn" > /dev/null
cargo run --release -q --offline -- new --input 2x24x24 --arch pool:2,conv:6:5:1:2,pool:2,dense:32,dense:11 \
    --sparsity 0.5 --out "$ANALYZE_TMP/ibm.snn" > /dev/null
cargo run --release -q --offline -- new --input 140 --arch recurrent:32,dense:20 \
    --sparsity 0.5 --out "$ANALYZE_TMP/shd.snn" > /dev/null
for m in nmnist ibm shd; do
    cargo run --release -q --offline -- analyze "$ANALYZE_TMP/$m.snn" | grep -q '^  neurons: ' \
        || { echo "$m: analyze printed no neuron classification"; exit 1; }
done

step "observability — traced generate/verify profiles show the pipeline stages"
cargo run --release -q --offline -- new --input 6 --arch dense:12,dense:4 \
    --out "$ANALYZE_TMP/obs.snn" > /dev/null
cargo run --release -q --offline -- generate "$ANALYZE_TMP/obs.snn" --preset fast \
    --out "$ANALYZE_TMP/obs.events" --trace-out "$ANALYZE_TMP/generate.trace.jsonl" > /dev/null
PROFILE="$(cargo run --release -q --offline -- profile "$ANALYZE_TMP/generate.trace.jsonl")"
for node in generate stage1 stage2; do
    grep -q "$node" <<< "$PROFILE" || { echo "profile missing span '$node'"; exit 1; }
done
cargo run --release -q --offline -- verify "$ANALYZE_TMP/obs.snn" "$ANALYZE_TMP/obs.events" \
    --trace-out "$ANALYZE_TMP/verify.trace.jsonl" > /dev/null
cargo run --release -q --offline -- profile "$ANALYZE_TMP/verify.trace.jsonl" \
    | grep -q "faultsim.campaign" || { echo "verify profile missing span 'faultsim.campaign'"; exit 1; }
# Generator attribution: sampling, losses, BPTT, the wait for the
# relaxation and the STE/Adam update each have a span on the generator
# thread, so on the conv example the stages' own (unattributed) time
# there must stay within 5% of the generation. The stages' SELF column
# cannot say it: their `stage.noise` and `stage.soften` children run
# beside them on the noise thread, so it is recomputed from the
# generator thread's spans alone. The gate takes the median of three
# traced runs: one run on a busy host read 6.2% where 24 runs right
# after it read 1.3-3.2%.
# A profile duration ("12us", "3.4ms", "1.2s") in microseconds.
AWK_US='function us(d) { return d ~ /us$/ ? d + 0 : d ~ /ms$/ ? d * 1e3 : d * 1e6 }'
STAGE_SHARES=()
for run in 1 2 3; do
    cargo run --release -q --offline -- generate "$ANALYZE_TMP/ibm.snn" --preset fast \
        --out "$ANALYZE_TMP/ibm.obs.events" --trace-out "$ANALYZE_TMP/ibm.generate.$run.trace.jsonl" \
        > /dev/null
    RUN_PROFILE="$(cargo run --release -q --offline -- profile "$ANALYZE_TMP/ibm.generate.$run.trace.jsonl")"
    if (( run == 1 )); then IBM_PROFILE="$RUN_PROFILE"; fi
    STAGE_SHARES+=("$(awk "$AWK_US"'
        $4 == "generate" { total = us($1) }
        $4 == "stage1" || $4 == "stage2" { own += us($1) }
        $4 ~ /^(stage\.(sample|losses|update|wait)|snn\.(forward|backward))$/ { own -= us($1) }
        END {
            if (total <= 0) { print "generate profile has no generate span" > "/dev/stderr"; exit 1 }
            printf "%.1f\n", 100 * own / total
        }' <<< "$RUN_PROFILE")")
done
for node in stage.sample stage.noise stage.soften stage.wait stage.losses stage.update snn.forward snn.backward; do
    grep -q "$node" <<< "$IBM_PROFILE" || { echo "generate profile missing span '$node'"; exit 1; }
done
printf '%s\n' "${STAGE_SHARES[@]}" | sort -g | awk '
    NR == 2 { median = $1 }
    { runs = runs " " $1 "%" }
    END {
        printf "stage1+stage2 own time is %.1f%% of generate, median of%s (need <=5%%)\n", median, runs
        if (median > 5) exit 1
    }'
# Ticks are the convolution's vector axis: on the conv example the forward
# and backward passes together cost 2.8-3.8x the sampler's elementwise
# work, which all runs on the noise thread: the noise (`stage.noise`)
# and the sigmoid (`stage.soften`), eleven runs. The ceiling is 30% over
# the worst of them. Those spans hold no wait, where `stage.sample` on
# the generator thread is mostly the wait for a block now that it no
# longer makes the sigmoid: the passes over `stage.sample` +
# `stage.soften` swung 2.8-7.5x over 22 runs. (Before the sigmoid moved,
# the passes cost 7.1-10.1x `stage.sample`, the sigmoid and the wait;
# 4.3-4.9x it while it also drew the noise; and 6.2-7.8x that while each
# tick's rows were convolved on their own.) The two threads share the
# host, so its speed cancels.
awk "$AWK_US"'
    $4 == "stage.noise" || $4 == "stage.soften" { sampler += us($1) }
    $4 == "snn.forward" || $4 == "snn.backward" { simulator += us($1) }
    END {
        if (sampler <= 0 || simulator <= 0) { print "generate profile lacks sampler or simulator spans"; exit 1 }
        printf "(snn.forward + snn.backward) / (stage.noise + stage.soften) = %.2f (need <= 5.0)\n", simulator / sampler
        if (simulator > 5.0 * sampler) exit 1
    }' <<< "$IBM_PROFILE" \
    || { echo "the conv forward and backward passes lost the lead of the time-batched kernels"; exit 1; }
# The noise is not part of the step: on the dense example, where sampling
# was the largest line, the noise is drawn on a thread of its own one
# step ahead (`stage.noise`), and what the generator thread spends in
# `stage.sample` — waiting for a drawn block and binarising with it —
# must stay below the drawing (0.11-0.86 of it over 33 runs; 0.49-0.92
# while the span made the sigmoid too, and that read 0.57-1.58 on the
# host of the first range).
cargo run --release -q --offline -- generate "$ANALYZE_TMP/nmnist.snn" --preset fast \
    --out "$ANALYZE_TMP/nmnist.obs.events" --trace-out "$ANALYZE_TMP/nmnist.generate.trace.jsonl" > /dev/null
cargo run --release -q --offline -- profile "$ANALYZE_TMP/nmnist.generate.trace.jsonl" | awk "$AWK_US"'
    $4 == "stage.sample" { sample += us($1) }
    $4 == "stage.noise" { noise += us($1) }
    END {
        if (noise <= 0) { print "generate profile has no stage.noise span: the noise is drawn in line"; exit 1 }
        printf "stage.sample / stage.noise = %.2f (need < 1)\n", sample / noise
        if (sample >= noise) { print "the generator thread spends longer sampling than the noise thread drawing"; exit 1 }
    }'

step "packed engine — digest equality with the scalar engine on the example nets"
# Same seeded campaign under both engines: the packed path promises
# bit-identical verdicts (DESIGN.md §18.3), so the digests must match
# on all three example nets — nmnist (pool prefix), ibm (conv sites and
# a pool crossing), shd (recurrent sites) — and the planner must take
# every fault of all three: nothing is left to the scalar fallback.
# Both runs print their campaign time, and their ratio — taken within
# one run of this script, so host speed cancels — has a floor at half of
# what it read before the sweep behind the fault followed the lane's
# spikes (12x / 5.4x / 3.3x): a sweep that falls back to per-lane full
# products drops below it, noise does not. The ibm floor is half the
# worst of five readings (14.4-15.9x) taken once a conv weight fault
# convolved only the ticks its input channel carries traffic on and a
# conv lane re-pooled only its own channel; the parent, alternating with
# it on the same two-core host, read 10.2-14.2x, so the floor does not
# catch a return to it. The nmnist floor is half the
# worst of five readings (18.3-33.2x) taken once the live lanes behind
# the fault layer were stepped together as one block; stepping them one
# lane at a time read 15.0-18.7x in alternation with them on the same
# two-core host, so the floor does not catch a return to that either.
verdict_of() { sed -n 's/^verdict digest: \([0-9a-f]*\)$/\1/p' <<< "$1"; }
campaign_seconds_of() {
    sed -n 's/^fault coverage: .* in \([0-9.]*\)\(ns\|µs\|ms\|s\)$/\1 \2/p' <<< "$1" | awk '
        { scale["ns"] = 1e-9; scale["µs"] = 1e-6; scale["ms"] = 1e-3; scale["s"] = 1; print $1 * scale[$2] }'
}
declare -A PACKED_SPEEDUP_FLOOR=([nmnist]=9.1 [ibm]=7.2 [shd]=2)
for m in nmnist ibm shd; do
    cargo run --release -q --offline -- generate "$ANALYZE_TMP/$m.snn" --preset fast --seed 5 \
        --out "$ANALYZE_TMP/$m.events" > /dev/null
    SCALAR_OUT="$(cargo run --release -q --offline -- verify "$ANALYZE_TMP/$m.snn" \
        "$ANALYZE_TMP/$m.events" --engine scalar)"
    PACKED_OUT="$(cargo run --release -q --offline -- verify "$ANALYZE_TMP/$m.snn" \
        "$ANALYZE_TMP/$m.events" --engine packed)"
    grep -q '^engine: scalar$' <<< "$SCALAR_OUT" || { echo "$m: verify ignored --engine scalar"; exit 1; }
    grep -q '^engine: packed$' <<< "$PACKED_OUT" || { echo "$m: verify ignored --engine packed"; exit 1; }
    grep -Eq '^packed: [0-9]+ faults in [0-9]+ runs, fallback: 0$' <<< "$PACKED_OUT" \
        || { echo "$m: packed verify left faults to the scalar fallback"; grep '^packed:' <<< "$PACKED_OUT"; exit 1; }
    SCALAR_DIGEST="$(verdict_of "$SCALAR_OUT")"
    PACKED_DIGEST="$(verdict_of "$PACKED_OUT")"
    [[ -n "$SCALAR_DIGEST" ]] || { echo "$m: verify printed no verdict digest"; exit 1; }
    [[ "$SCALAR_DIGEST" == "$PACKED_DIGEST" ]] \
        || { echo "$m: engine digest mismatch: scalar $SCALAR_DIGEST vs packed $PACKED_DIGEST"; exit 1; }
    SCALAR_S="$(campaign_seconds_of "$SCALAR_OUT")"
    PACKED_S="$(campaign_seconds_of "$PACKED_OUT")"
    [[ -n "$SCALAR_S" && -n "$PACKED_S" ]] || { echo "$m: verify printed no campaign time"; exit 1; }
    awk -v m="$m" -v scalar="$SCALAR_S" -v packed="$PACKED_S" -v floor="${PACKED_SPEEDUP_FLOOR[$m]}" 'BEGIN {
        ratio = scalar / packed
        printf "%s: scalar %.3f s / packed %.3f s = %.1fx (floor %gx)\n", m, scalar, packed, ratio, floor
        if (ratio < floor) { print m ": the packed engine lost its lead over the scalar one"; exit 1 }
    }'
done

step "packed engine — kernel phases attribute >=95% of dense-, conv- and recurrent-site campaigns"
# Every fault-layer stage — a run's dense weight members together, each
# conv and recurrent site on its own — must land in the forward.l* slots,
# and the grouping of equal divergences in the compare slot.
for m in nmnist ibm shd; do
    cargo run --release -q --offline -- verify "$ANALYZE_TMP/$m.snn" "$ANALYZE_TMP/$m.events" \
        --engine packed --trace-out "$ANALYZE_TMP/$m.packed.trace.jsonl" > /dev/null
    PACKED_PROFILE="$(cargo run --release -q --offline -- profile \
        "$ANALYZE_TMP/$m.packed.trace.jsonl" --phases)"
    grep -q "phase.forward.l" <<< "$PACKED_PROFILE" \
        || { echo "$m: packed profile has no forward phase rows"; exit 1; }
    PACKED_ATTRIBUTED="$(sed -n 's/^attributed: \([0-9]*\)\..*/\1/p' <<< "$PACKED_PROFILE")"
    [[ -n "$PACKED_ATTRIBUTED" ]] || { echo "$m: packed profile missing attribution line"; exit 1; }
    (( PACKED_ATTRIBUTED >= 95 )) \
        || { echo "$m: kernel phases attribute only ${PACKED_ATTRIBUTED}% of packed fault-sim time (need >=95%)"; exit 1; }
done

step "one digest — a coverage job at 0, 1 and 2 workers records what verify prints"
# The same job three times: in-process, then sharded over one and two
# one-thread workers. Its stimulus is `generate`'s and its campaign is
# `verify`'s — the whole universe — so each job's events file is the one
# `generate` writes, and the three recorded digests equal each other and
# the one `verify` prints for that file (`--synthetic` and `new` seed the
# same weights, and `submit` and `generate` the same generator).
./target/release/snn-mtfc new --input 16 --arch dense:64,dense:10 \
    --out "$ANALYZE_TMP/cluster.snn" > /dev/null
./target/release/snn-mtfc generate "$ANALYZE_TMP/cluster.snn" --preset fast \
    --out "$ANALYZE_TMP/cluster.events" > /dev/null
json_field() { sed -n "s/.*\"$1\":\"\{0,1\}\([0-9a-f]*\).*/\1/p" <<< "$2"; }
declare -A JOB_DIGEST JOB_RATE
for workers in 0 1 2; do
    JOB_LOG="$ANALYZE_TMP/digest-serve-$workers.log"
    ./target/release/snn-mtfc serve --state-dir "$ANALYZE_TMP/digest-state-$workers" \
        --addr 127.0.0.1:0 --workers 1 --expect-workers "$workers" --chunk-size 128 \
        > "$JOB_LOG" 2>&1 &
    JOB_PIDS=($!)
    JOB_ADDR="$(listen_addr_of "$JOB_LOG")"
    [[ -n "$JOB_ADDR" ]] || { echo "$workers-worker serve did not come up"; cat "$JOB_LOG"; exit 1; }
    for w in $(seq 1 "$workers"); do
        ./target/release/snn-mtfc worker --addr "$JOB_ADDR" --name "digest-w$w" --threads 1 \
            > /dev/null 2>&1 &
        JOB_PIDS+=($!)
    done
    ./target/release/snn-mtfc submit --synthetic 16x64x10 --preset fast --threads 1 --coverage \
        --watch --addr "$JOB_ADDR" > /dev/null
    JOB_RECORD="$(./target/release/snn-mtfc watch 1 --json --addr "$JOB_ADDR" | tail -1)"
    ./target/release/snn-mtfc shutdown --addr "$JOB_ADDR" > /dev/null
    wait "${JOB_PIDS[@]}" 2>/dev/null || true
    cmp "$ANALYZE_TMP/cluster.events" "$ANALYZE_TMP/digest-state-$workers/results/job-1.events" \
        || { echo "$workers-worker job wrote another stimulus than generate"; exit 1; }
    JOB_DIGEST[$workers]="$(json_field verdict_digest "$JOB_RECORD")"
    [[ -n "${JOB_DIGEST[$workers]}" ]] || { echo "$workers-worker job recorded no digest"; exit 1; }
    VERIFIED="$(verdict_of "$(./target/release/snn-mtfc verify "$ANALYZE_TMP/cluster.snn" \
        "$ANALYZE_TMP/digest-state-$workers/results/job-1.events")")"
    [[ "${JOB_DIGEST[$workers]}" == "$VERIFIED" ]] \
        || { echo "$workers-worker job recorded ${JOB_DIGEST[$workers]}, verify prints $VERIFIED"; exit 1; }
    JOB_RATE[$workers]="$(json_field faults_total "$JOB_RECORD") $(json_field fault_sim_ms "$JOB_RECORD")"
    echo "$workers worker(s): digest ${JOB_DIGEST[$workers]}, faults / ms: ${JOB_RATE[$workers]}"
done
[[ "${JOB_DIGEST[0]}" == "${JOB_DIGEST[1]}" && "${JOB_DIGEST[0]}" == "${JOB_DIGEST[2]}" ]] \
    || { echo "verdict digest differs between worker counts"; exit 1; }
# Two one-thread workers against the same campaign on one in-process
# thread: below 0.7 the lease path and the wire eat more than the second
# worker brings (it read 0.66 before leases were long-polled and
# pipelined).
awk -v local="${JOB_RATE[0]}" -v two="${JOB_RATE[2]}" 'BEGIN {
    split(local, l, " "); split(two, t, " ")
    if (l[2] <= 0 || t[2] <= 0) { print "a job recorded no fault-simulation time"; exit 1 }
    ratio = (t[1] / t[2]) / (l[1] / l[2])
    printf "2-worker / 0-worker faults per ms: %.0f / %.0f = %.2f\n", t[1] / t[2], l[1] / l[2], ratio
    if (ratio < 0.7) { print "distributed campaign runs below 0.7 of the in-process rate"; exit 1 }
}'

step "distributed tracing — 2-worker traced campaign merges into one coherent tree"
SERVE_LOG="$ANALYZE_TMP/serve.log"
./target/release/snn-mtfc serve --state-dir "$ANALYZE_TMP/trace-state" --addr 127.0.0.1:0 \
    --expect-workers 2 --chunk-size 64 \
    --trace-out "$ANALYZE_TMP/cluster.trace.jsonl" > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
SERVE_ADDR="$(listen_addr_of "$SERVE_LOG")"
[[ -n "$SERVE_ADDR" ]] || { echo "traced serve did not come up"; cat "$SERVE_LOG"; exit 1; }
./target/release/snn-mtfc worker --addr "$SERVE_ADDR" --name trace-w1 --threads 1 --trace \
    > /dev/null 2>&1 &
W1_PID=$!
./target/release/snn-mtfc worker --addr "$SERVE_ADDR" --name trace-w2 --threads 1 --trace \
    > /dev/null 2>&1 &
W2_PID=$!
./target/release/snn-mtfc submit --synthetic 16x64x10 --preset fast --coverage --watch \
    --addr "$SERVE_ADDR" > /dev/null
./target/release/snn-mtfc shutdown --addr "$SERVE_ADDR" > /dev/null
wait "$SERVE_PID" "$W1_PID" "$W2_PID" 2>/dev/null || true
TRACED_PROFILE="$(./target/release/snn-mtfc profile "$ANALYZE_TMP/cluster.trace.jsonl" --phases)"
for node in cluster.campaign worker:trace-w1 worker:trace-w2 cluster.chunk; do
    grep -qF "$node" <<< "$TRACED_PROFILE" \
        || { echo "traced-campaign profile missing '$node'"; exit 1; }
done
# A coverage job is one campaign over the universe.
CAMPAIGNS="$(awk '$4 == "cluster.campaign" { print $3 }' <<< "$TRACED_PROFILE")"
[[ "$CAMPAIGNS" == "1" ]] || { echo "the coverage job submitted ${CAMPAIGNS:-no} campaigns (need 1)"; exit 1; }
grep -q "KERNEL PHASES" <<< "$TRACED_PROFILE" && grep -q "phase.forward" <<< "$TRACED_PROFILE" \
    || { echo "traced-campaign profile has no kernel-phase table"; exit 1; }
ATTRIBUTED="$(sed -n 's/^attributed: \([0-9]*\)\..*/\1/p' <<< "$TRACED_PROFILE")"
[[ -n "$ATTRIBUTED" ]] || { echo "phase table missing attribution line"; exit 1; }
(( ATTRIBUTED >= 95 )) \
    || { echo "kernel phases attribute only ${ATTRIBUTED}% of fault-sim time (need >=95%)"; exit 1; }

step "server memory is flat — 40 watched jobs over 40 models"
# Every job brings a model the server has not seen (the CLI seeds the
# synthetic weights with --seed) and a watcher that leaves when the job
# is done. What the server keeps per job must not grow with the number
# of jobs: its resident set after job 40 may exceed the one after job 10
# by 8 MB at most (before a finished watch released its subscription
# and the server's per-model cache, since removed, was bounded, the same
# run added 85 MB). One worker
# thread: the jobs come one at a time anyway, and a second one only
# gives the allocator a second arena to warm up past job 10 (the heap
# reaches its high-water mark around job 10 with one, 15 with two).
MEM_LOG="$ANALYZE_TMP/mem-serve.log"
./target/release/snn-mtfc serve --state-dir "$ANALYZE_TMP/mem-state" --addr 127.0.0.1:0 \
    --workers 1 > "$MEM_LOG" 2>&1 &
MEM_PID=$!
MEM_ADDR="$(listen_addr_of "$MEM_LOG")"
[[ -n "$MEM_ADDR" ]] || { echo "memory-check serve did not come up"; cat "$MEM_LOG"; exit 1; }
rss_kb() { awk '/^VmRSS:/ { print $2 }' "/proc/$MEM_PID/status"; }
for i in $(seq 1 40); do
    ./target/release/snn-mtfc submit --synthetic 64x64x32x10 --preset fast --max-iterations 2 \
        --seed "$i" --watch --addr "$MEM_ADDR" > /dev/null
    if (( i == 10 )); then RSS_AFTER_10="$(rss_kb)"; fi
done
RSS_AFTER_40="$(rss_kb)"
./target/release/snn-mtfc shutdown --addr "$MEM_ADDR" > /dev/null
wait "$MEM_PID" 2>/dev/null || true
echo "server VmRSS: ${RSS_AFTER_10} kB after 10 jobs, ${RSS_AFTER_40} kB after 40"
(( RSS_AFTER_40 - RSS_AFTER_10 <= 8192 )) \
    || { echo "server grew $(( (RSS_AFTER_40 - RSS_AFTER_10) / 1024 )) MB between job 10 and job 40 (limit 8 MB)"; exit 1; }

step "reliability — seeded fault-map campaign, single-process vs 2-worker digests gated"
RELIABILITY_ARGS=(--synthetic 6x12x4 --configs 8 --weight-ber 0.05 --mitigation range
    --seed 11 --samples 6 --steps 12 --json)
REL_LOCAL="$(cargo run --release -q --offline -- reliability "${RELIABILITY_ARGS[@]}")"
REL_DIST="$(cargo run --release -q --offline -- reliability "${RELIABILITY_ARGS[@]}" --workers 2)"
digest_of() { sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p' <<< "$1"; }
LOCAL_DIGEST="$(digest_of "$REL_LOCAL")"
DIST_DIGEST="$(digest_of "$REL_DIST")"
[[ -n "$LOCAL_DIGEST" ]] || { echo "reliability report missing digest"; exit 1; }
[[ "$LOCAL_DIGEST" == "$DIST_DIGEST" ]] \
    || { echo "reliability digest mismatch: local $LOCAL_DIGEST vs 2-worker $DIST_DIGEST"; exit 1; }
grep -q '"regions":\[{' <<< "$REL_LOCAL" \
    || { echo "reliability report has an empty criticality ranking"; exit 1; }
# A transient window with neuron faults: the live ticks are a range on
# the one LIF loop, so the digest must match across process splits and
# a33d2db16430582e, what a release build of the segmented simulator that
# loop replaced printed for the same flags.
WINDOW_ARGS=("${RELIABILITY_ARGS[@]}" --window 3:9 --neuron-ber 0.05)
WIN_LOCAL="$(digest_of "$(cargo run --release -q --offline -- reliability "${WINDOW_ARGS[@]}")")"
WIN_DIST="$(digest_of "$(cargo run --release -q --offline -- reliability "${WINDOW_ARGS[@]}" \
    --workers 2)")"
[[ "$WIN_LOCAL" == a33d2db16430582e && "$WIN_DIST" == "$WIN_LOCAL" ]] \
    || { echo "windowed reliability digest: local $WIN_LOCAL, 2-worker $WIN_DIST, want a33d2db16430582e"; exit 1; }

step "determinism — double-run: fresh processes reproduce bytes exactly"
# The property clippy.toml's bans guard, checked dynamically: two cold
# processes over the same seeded spec must emit byte-identical artifacts.
cargo run --release -q --offline -- generate "$ANALYZE_TMP/obs.snn" --preset fast \
    --out "$ANALYZE_TMP/det1.events" > /dev/null
cargo run --release -q --offline -- generate "$ANALYZE_TMP/obs.snn" --preset fast \
    --out "$ANALYZE_TMP/det2.events" > /dev/null
cmp -s "$ANALYZE_TMP/det1.events" "$ANALYZE_TMP/det2.events" \
    || { echo "seeded generate differs between two fresh processes"; exit 1; }
REL_RERUN="$(cargo run --release -q --offline -- reliability "${RELIABILITY_ARGS[@]}")"
diff <(printf '%s' "$REL_LOCAL") <(printf '%s' "$REL_RERUN") > /dev/null \
    || { echo "reliability JSON differs between two fresh processes"; exit 1; }

step "benchmark harness — its own tests: a smoke pass of all five workloads, digests checked"
# The harness links ops::*, Network::{forward, backward}, Stage and
# TestGenerator by signature; a break there should fail CI, not the
# benchmark driver. Builds into the ignored .bench_build/. The committed
# benchmark/Cargo.lock still lists the deleted snn-batch and cargo rewrites
# it on every build, while benchmark/ only changes in a [benchmark] PR
# (ROADMAP 1c refreshes it): the committed bytes go back afterwards, pass
# or fail, so the run leaves the tree as it found it.
mkdir -p .bench_build
cp benchmark/Cargo.lock .bench_build/Cargo.lock.committed
cargo test --release -q --offline --manifest-path benchmark/Cargo.toml \
    --target-dir .bench_build/harness-tests \
    || { cp .bench_build/Cargo.lock.committed benchmark/Cargo.lock; exit 1; }
cp .bench_build/Cargo.lock.committed benchmark/Cargo.lock

step "cargo test --release — the service tests whose long jobs must stay long at full speed"
# A test that relies on a job outlasting it can pass in the debug profile
# and fail in this one, where the generator is thirty times faster.
cargo test --release -q --offline -p snn-service --lib
cargo test --release -q --offline -p snn-mtfc --test service

step "cargo test (debug, overflow-checks) — arms the numeric sanitizer and lock-order detector"
RUSTFLAGS="-C overflow-checks=on" cargo test -q --offline --workspace

step "dead-mask soundness property test runs under the debug sanitizer pass"
RUSTFLAGS="-C overflow-checks=on" cargo test -q --offline -p snn-analyze --test soundness

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy -- -D warnings (the lint levels in Cargo.toml and the crate roots, clippy.toml)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo; echo "CI passed."
