#!/usr/bin/env bash
# The repo benchmark, one command (see benchmark/README.md).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one pass over one workload; the last stdout line is the result JSON
#       (the form BENCHMARK.json's `command` is run in)
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--twice]
#       every workload, untraced then traced, every metric by name and unit;
#       --twice runs every pass twice back to back and fails unless the two
#       result sets agree within the end-to-end bounds
#   benchmark/run.sh --selftest
#       the driver's own tests, the ignored end-to-end smoke test included
#
# Builds `soi` and the driver from source first (release, lto=thin, as
# shipped). Everything it writes goes under $CARGO_TARGET_DIR (default
# target/): build products, and inputs/outputs in benchmark-out/.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Build chatter goes to stderr so stdout ends with the result line.
cargo build --release --offline -p soi-cli >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

SOI_BENCH_RUSTC="$(rustc -V)"
SOI_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export SOI_BENCH_RUSTC SOI_BENCH_COMMIT

out="$CARGO_TARGET_DIR/benchmark-out"
driver=("$CARGO_TARGET_DIR/release/soi-benchmark" --soi "$CARGO_TARGET_DIR/release/soi" --out-dir "$out")

case " $* " in
  *" --selftest "*)
    exec cargo test --release --offline --manifest-path benchmark/Cargo.toml -- --include-ignored ;;
  *" --workload "*) exec "${driver[@]}" "$@" ;;
esac
exec "${driver[@]}" all "$@"
