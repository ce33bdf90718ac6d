#!/usr/bin/env bash
# Tier-1 CI entry point for shrinkbench-rs.
#
# The workspace is hermetic: every dependency is an in-repo path crate
# (see the root Cargo.toml [workspace.dependencies]), so the whole build
# and test cycle must succeed with zero network access. `--offline` (and
# CARGO_NET_OFFLINE as a belt-and-suspenders for subprocesses) turns any
# accidental registry dependency into a hard failure instead of a fetch.
#
# This script is the definition of "tests pass" for the repo: run it
# before merging anything.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo build --release --offline

# Lints gate merges like tests do: the workspace, its tests, benches and
# binaries are clippy-clean, and a new warning fails tier-1.
cargo clippy --offline --all-targets -- -D warnings

# Compile-check every bench target (the figures, kernels, pruning,
# runtime and trace micro-benches) without running them, so bench code
# can't rot.
cargo bench --no-run --offline

# The suite runs twice: once pinned to one runtime thread (exact inline
# sequential execution) and once on four workers. sb-runtime's contract
# is that results are bit-identical either way — the determinism tests
# compare serialized bytes, so any scheduling-dependent result fails
# tier-1 here rather than in a figure. The 4-worker pass also runs with
# SB_TRACE=1, so every test exercises the *enabled* tracing paths (span
# collection, cross-thread re-parenting, counter attribution) — tracing
# must never change a result or panic under the full suite.
SB_RUNTIME_THREADS=1 cargo test -q --offline
SB_RUNTIME_THREADS=4 SB_TRACE=1 cargo test -q --offline

# The wall-clock floors compare *kernels* against each other (CSR vs BSR
# vs dense) and are claims about optimized code, so run the speed suite
# once in release too: the format-crossover floors gate merges on the
# build that ships.
SB_RUNTIME_THREADS=4 cargo test -q --release --offline -p sb-infer --test speed

# The serving smoke replays a pinned virtual-clock workload through the
# sb-serve micro-batcher and asserts its exact outcome counts — batching
# policy, admission control, deadline checks, and the rng stream all
# feed the signature, and the virtual clock makes it bit-identical at
# any worker count (both CI thread configs are exercised here).
SB_RUNTIME_THREADS=1 ./target/release/serveload --smoke
SB_RUNTIME_THREADS=4 ./target/release/serveload --smoke

# Same discipline for the multi-model scheduler: schedload --smoke
# replays a pinned 3-tenant workload (WFQ weights, priority classes,
# per-tenant batching, deadlines) through sb-sched on the virtual clock
# and asserts the exact outcome signature at both worker counts.
SB_RUNTIME_THREADS=1 ./target/release/schedload --smoke
SB_RUNTIME_THREADS=4 ./target/release/schedload --smoke

# And once more with per-tenant admission quotas enabled: the quota'd
# smoke pins the token-bucket refill arithmetic and the QuotaExceeded
# shed counts alongside the WFQ/EDF outcome signature, again at both
# worker counts.
SB_RUNTIME_THREADS=1 ./target/release/schedload --smoke --quota
SB_RUNTIME_THREADS=4 ./target/release/schedload --smoke --quota

# Fault-tolerance smokes: the same pinned workloads armed with seeded
# fault injection (panic bursts, transient flakes, slowdowns), bounded
# retry, circuit breakers, and pruned-model fallback. Each smoke
# asserts the exact degraded-mode counts — EngineFailure resolutions,
# CircuitOpen sheds, fallback completions, breaker transition counts —
# at the canonical seed, so panic isolation and recovery are gated the
# same way the happy path is, and again at both worker counts (the
# fault schedule is a pure function of the seed, never of scheduling).
SB_RUNTIME_THREADS=1 ./target/release/serveload --smoke --faults 64023
SB_RUNTIME_THREADS=4 ./target/release/serveload --smoke --faults 64023
SB_RUNTIME_THREADS=1 ./target/release/schedload --smoke --faults 64023
SB_RUNTIME_THREADS=4 ./target/release/schedload --smoke --faults 64023

# Tracing must leave experiment output byte-identical: run the same quick
# grid with tracing off and on, and compare the persisted results JSON.
# The traced run must also emit its grid trace artifacts.
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
./target/release/expfig mnist-saturation --scale quick \
    --results "$trace_tmp/plain" --figures "$trace_tmp/figs-plain" >/dev/null
SB_TRACE=1 ./target/release/expfig mnist-saturation --scale quick \
    --results "$trace_tmp/traced" --figures "$trace_tmp/figs-traced" >/dev/null
for f in "$trace_tmp/plain"/*.json; do
    cmp "$f" "$trace_tmp/traced/$(basename "$f")"
done
test -s "$trace_tmp/traced/mnist-saturation-quick.trace.json"
test -s "$trace_tmp/traced/mnist-saturation-quick.flame.txt"
echo "trace determinism: results identical traced vs untraced, artifacts emitted"

# Resume end to end: with only the `.cells/` directories left, a rerun
# must rebuild each grid JSON byte for byte. Every cell is cached, so the
# rerun reads the cell files and trains nothing.
mkdir "$trace_tmp/saved"
for f in "$trace_tmp/plain"/*.json; do
    cp "$f" "$trace_tmp/saved/"
    rm "$f"
done
./target/release/expfig mnist-saturation --scale quick \
    --results "$trace_tmp/plain" --figures "$trace_tmp/figs-plain" >/dev/null
for f in "$trace_tmp/saved"/*.json; do
    cmp "$f" "$trace_tmp/plain/$(basename "$f")"
done
echo "resume: grid files rebuilt byte-identically from their cell files"
