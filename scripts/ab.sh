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
# symbols: the inference kernels, the training kernels that `grid` runs
# (the backward tiles `matmul_rows` for `dx` and `transposed_rows` for
# `dW`, and `col2im`) and the reference mix. Within each layout it then
# runs PAIRS (default 2) alternating pairs of `benchmark --workload
# WORKLOAD --seconds SECONDS` (default 20), the first run of a pair
# alternating between the sides, and prints both
# medians of METRIC (default p50_ms) and CHANGE's ratio to BASE, with
# every run's `correct` and `failed`. METRIC `all` does so for every
# end-to-end metric (`setup_s`, `p50_ms`, `p90_ms`, `throughput`,
# `ref_p50_ms`) from the same runs. A METRIC with a dot in its name is
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
    sed -n '2,38p' "$0" | sed 's/^# \{0,1\}//'
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
    "csr-lanes|sb_tensor::sparse::SparseMatrix::matmul_rows$"
    "packed-conv|sb_tensor::conv::PackedConv::run$"
    "exec-matmul_rows|sb_infer::exec::matmul_rows$"
    "tile|sb_tensor::linalg::PackedRhs::matmul_rows$"
    "im2col_into|sb_tensor::conv::im2col_into$"
    "dx-tile|sb_tensor::linalg::matmul_rows$"
    "dW-tile|sb_tensor::linalg::transposed_rows$"
    "col2im|sb_tensor::conv::col2im$"
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
metrics=$metric
[ "$metric" = all ] && metrics="setup_s p50_ms p90_ms throughput ref_p50_ms"
runs="$work/runs"
: >"$runs"

# Appends each of $metrics from a run's last output line to $runs as
# `LAYOUT SIDE METRIC VALUE`, and prints the values, `correct`, `failed`
# and (traced runs) every model's `auto_ms`/`dense_ms`.
read_run() {
    python3 -c '
import json, sys
runs, layout, side, *names = sys.argv[1:]
r = json.loads(sys.stdin.read().strip().splitlines()[-1])
m = r["metrics"]
out = []
with open(runs, "a") as f:
    for name in names:
        v = m[name]["value"]
        f.write("%s %s %s %r\n" % (layout, side, name, v))
        out.append("%s=%s" % (name, v))
out += ["correct=" + str(r["correct"]).lower(), "failed=" + str(r["failed"])]
models = []
for k in sorted(m):
    if k.endswith(".auto_ms"):
        d = m.get(k[: -len("auto_ms")] + "dense_ms", {}).get("value")
        models.append("%s=%.3g/%s" % (k[: -len(".auto_ms")], m[k]["value"], "-" if d is None else "%.3g" % d))
if models:
    out += ["auto/dense ms:"] + models
print(" ".join(out))
' "$runs" "$@" $metrics
}

# Both sides' medians of each of $metrics and CHANGE's ratio, over the
# runs of layout $1 (all layouts when empty), on lines labelled $2.
summarize() {
    python3 -c '
import statistics, sys
runs, workload, layout, label, *names = sys.argv[1:]
rows = [line.split() for line in open(runs)]
for name in names:
    med = {}
    for side in "ab":
        vals = [float(v) for (l, s, n, v) in rows if n == name and s == side and layout in ("", l)]
        med[side] = statistics.median(vals)
    ratio = med["b"] / med["a"] if med["a"] else float("nan")
    print("%s: %s %s base %.6g change %.6g ratio %.3f" % (label, workload, name, med["a"], med["b"], ratio))
' "$runs" "$workload" "$1" "$2" $metrics
}

for seed in $(seq 1 "$seeds"); do
    for p in $(seq 1 "$pairs"); do
        order="a b"
        [ $((p % 2)) -eq 0 ] && order="b a"
        for side in $order; do
            # A run whose check fails exits 1 but still prints its line.
            raw=$("$(bin "$side" "$seed")" --workload "$workload" --seed "$bench_seed" \
                --seconds "$seconds" --trace "$trace" || true)
            echo "layout $seed pair $p side $side: $(printf '%s\n' "$raw" | read_run "$seed" "$side")"
        done
    done
    summarize "$seed" "layout $seed"
done
summarize "" "all layouts"
