#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json runs it as `bash benchmark/run.sh`):
#
#   benchmark/run.sh [--smoke] [--seed N] [--workload NAME] [--trace [0|1]]
#                    [--seconds S] [--sabotage] [--out DIR]
#
# Builds the shipped daemon and the benchmark in release mode from source,
# then runs the selected workloads (all four when none is named). Every
# metric is printed by name with its unit; the last line of each run is the
# contract's JSON result. One record per run lands in benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Both builds share one target directory: the caller's if it names one (the
# driver sets CARGO_TARGET_DIR=.bench_build), the repository's otherwise.
# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# started in, so pin it to the repository root first.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build chatter goes to stderr: stdout carries metrics and the result line.
cargo build --release --offline --quiet -p simdht-kvs --bin simdht-kvsd >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# exec: the benchmark replaces this shell, so signals reach it directly and
# the daemon it spawns dies with it.
exec "$target/release/simdht-benchmark" run \
    --kvsd "$target/release/simdht-kvsd" --out "$here/out" "$@"
