#!/usr/bin/env bash
# Compares two revisions on one benchmark workload across sampled code
# layouts.
#
#   scripts/ab.sh BASE CHANGE WORKLOAD [SEEDS] [PAIRS] [SECONDS] [METRIC]
#
# BASE and CHANGE are git revisions. Each is exported with `git archive`
# and the benchmark package is built once per layout seed 1..SEEDS
# (default 4), with LLD's `--shuffle-sections=*=SEED`, which permutes the
# order of functions at link time, into a target directory of that build's
# own. Sparse-kernel and serving timings follow where hot functions land
# modulo 64, so one build per side samples one layout only; a change
# counts as a gain when it holds in every layout.
#
# For every build the script prints the offsets modulo 64 of the hot
# symbols. Within each layout it then runs PAIRS (default 2) alternating
# pairs of `benchmark --workload WORKLOAD --seconds SECONDS` (default 20),
# the first run of a pair alternating between the sides, and prints both
# medians of METRIC (default p50_ms) and CHANGE's ratio to BASE, with
# every run's `correct` and `failed`. A METRIC with a dot in its name is
# a per-layer one (e.g. `infer.lenet5_4x.auto_ms`): the runs then pass
# `--trace 1`, and each run also prints every model's traced `auto_ms`
# and `dense_ms`.
#
# WORKLOAD `speed` runs sb-infer's release speed suite instead
# (`cargo test --release -p sb-infer --test speed`, built per layout seed
# and side like the benchmark): for every floor it prints the measured
# ratio and whether the floor held. PAIRS, SECONDS and METRIC are unused.
#
# Environment: AB_DIR is the work directory (default: a new temporary
# one, removed at exit unless AB_KEEP=1); BENCH_SEED is the benchmark's
# --seed (default 1). The shuffle applies only to these builds: the
# default build, Cargo.toml and ci.sh never set it.

set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,35p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
base=$1 change=$2 workload=$3
seeds=${4:-4} pairs=${5:-2} seconds=${6:-20} metric=${7:-p50_ms}
bench_seed=${BENCH_SEED:-1}
repo=$(cd "$(dirname "$0")/.." && pwd)

work=${AB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/ab-XXXXXX")}
mkdir -p "$work"
if [ -z "${AB_DIR:-}" ] && [ "${AB_KEEP:-0}" != 1 ]; then
    trap 'rm -rf "$work"' EXIT
fi

# Hot symbols: label and a pattern for `nm -C`.
symbols=(
    "csr-row-tile|sb_tensor::sparse::SparseMatrix::matmul_rows$"
    "packed-conv|sb_tensor::conv::PackedConv::run$"
    "exec-matmul_rows|sb_infer::exec::matmul_rows$"
    "tile|sb_tensor::linalg::PackedRhs::matmul_rows$"
    "im2col_into|sb_tensor::conv::im2col_into$"
    "bsr|sb_infer::formats::BsrMatrix::matmul_rows$"
    "bitmap|sb_infer::formats::BitmapMatrix::matmul_rows$"
    "mix|benchmark::calib::Mix::run_ms$"
)

for side in a b; do
    rev=$base
    [ "$side" = b ] && rev=$change
    rm -rf "$work/src-$side"
    mkdir -p "$work/src-$side"
    git -C "$repo" archive "$rev" | tar -x -C "$work/src-$side"
    echo "side $side: $rev ($(git -C "$repo" rev-parse --short "$rev"))"
done

bin() { echo "$work/tgt-$1-$2/release/benchmark"; }

# The speed suite's test binary of one build.
speed_bin() {
    find "$work/tgt-$1-$2/release/deps" -maxdepth 1 -type f -perm -u+x -name 'speed-*' | head -1
}

build() {
    local side=$1 seed=$2
    export RUSTFLAGS="-C link-arg=-Wl,--shuffle-sections=*=$seed"
    export CARGO_TARGET_DIR="$work/tgt-$side-$seed"
    if [ "$workload" = speed ]; then
        cargo test --release --offline --quiet --no-run -p sb-infer --test speed \
            --manifest-path "$work/src-$side/Cargo.toml"
        speed_bin "$side" "$seed"
    else
        cargo build --release --offline --quiet \
            --manifest-path "$work/src-$side/crates/bench/src/bin/benchmark/Cargo.toml"
        bin "$side" "$seed"
    fi
    unset RUSTFLAGS CARGO_TARGET_DIR
}

for seed in $(seq 1 "$seeds"); do
    for side in a b; do
        exe=$(build "$side" "$seed")
        line="layout $seed side $side offsets mod 64:"
        for entry in "${symbols[@]}"; do
            # A symbol one side lacks (a kernel the change adds or
            # deletes) is left out of that side's line.
            addr=$(nm -C "$exe" | grep -E " [Tt] ${entry#*|}" | head -1 | cut -d' ' -f1 || true)
            if [ -n "$addr" ]; then
                line+=" ${entry%%|*}=$((16#$addr % 64))"
            fi
        done
        echo "$line"
    done
done

if [ "$workload" = speed ]; then
    # Each floor on its own, so that its ratio line is its own.
    for seed in $(seq 1 "$seeds"); do
        for side in a b; do
            exe=$(speed_bin "$side" "$seed")
            for t in $("$exe" --list 2>/dev/null | sed -n 's/: test$//p'); do
                verdict=pass
                out=$("$exe" --exact "$t" --nocapture 2>&1) || verdict=FAIL
                ratio=$(printf '%s\n' "$out" | sed -n 's/^speedup \([0-9.]*\)x.*/\1/p' | tail -1)
                echo "layout $seed side $side: $t ratio=${ratio:--} $verdict"
            done
        done
    done
    exit 0
fi

trace=0
case $metric in *.*) trace=1 ;; esac

# The metric, `correct` and `failed` from a run's last output line, then
# (traced runs) every model's `auto_ms`/`dense_ms`.
read_run() {
    python3 -c '
import json, sys
r = json.loads(sys.stdin.read().strip().splitlines()[-1])
m = r["metrics"]
out = [str(m[sys.argv[1]]["value"]), str(r["correct"]).lower(), str(r["failed"])]
for k in sorted(m):
    if k.endswith(".auto_ms"):
        d = m.get(k[: -len("auto_ms")] + "dense_ms", {}).get("value")
        out.append("%s=%.3g/%s" % (k[: -len(".auto_ms")], m[k]["value"], "-" if d is None else "%.3g" % d))
print(" ".join(out))
' "$metric"
}

median() { sort -g | awk '{v[NR]=$1} END {print (NR%2 ? v[(NR+1)/2] : (v[NR/2]+v[NR/2+1])/2)}'; }

all_a=() all_b=()
for seed in $(seq 1 "$seeds"); do
    runs_a=() runs_b=()
    for p in $(seq 1 "$pairs"); do
        order="a b"
        [ $((p % 2)) -eq 0 ] && order="b a"
        for side in $order; do
            # A run whose check fails exits 1 but still prints its line.
            raw=$("$(bin "$side" "$seed")" --workload "$workload" --seed "$bench_seed" \
                --seconds "$seconds" --trace "$trace" || true)
            out=$(printf '%s\n' "$raw" | read_run)
            set -- $out
            models=${*:4}
            echo "layout $seed pair $p side $side: $metric=$1 correct=$2 failed=$3${models:+ auto/dense ms: $models}"
            if [ "$side" = a ]; then runs_a+=("$1"); else runs_b+=("$1"); fi
        done
    done
    ma=$(printf '%s\n' "${runs_a[@]}" | median)
    mb=$(printf '%s\n' "${runs_b[@]}" | median)
    ratio=$(awk -v a="$ma" -v b="$mb" 'BEGIN {printf "%.3f", b / a}')
    echo "layout $seed: $workload $metric base $ma change $mb ratio $ratio"
    all_a+=("${runs_a[@]}") all_b+=("${runs_b[@]}")
done
ma=$(printf '%s\n' "${all_a[@]}" | median)
mb=$(printf '%s\n' "${all_b[@]}" | median)
echo "all layouts: $workload $metric base $ma change $mb ratio $(awk -v a="$ma" -v b="$mb" 'BEGIN {printf "%.3f", b / a}')"
