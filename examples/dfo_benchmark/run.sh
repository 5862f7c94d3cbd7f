#!/usr/bin/env bash
# Runs the whole benchmark twice on one build and one seed, then compares the
# two sets: every end-to-end metric of every workload must agree within its
# bound, every result digest and every exact per-layer count must be equal.
#
#   examples/dfo_benchmark/run.sh [seed]          # about 6 minutes
#   examples/dfo_benchmark/run.sh [seed] --quick  # smoke run, no comparison
set -euo pipefail
cd "$(dirname "$0")/../.."
seed="${1:-1}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-examples/dfo_benchmark/target}"
cargo build --release --offline --manifest-path examples/dfo_benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/dfo_benchmark"
out="$CARGO_TARGET_DIR/dfo_benchmark_out"
mkdir -p "$out"
if [ "${2:-}" = "--quick" ]; then
    exec "$bin" --seed "$seed" --quick --out "$out/quick.json"
fi
# smoke run first; it also takes the machine out of its idle state, in which
# the first half minute runs markedly slower than the rest
"$bin" --seed "$seed" --quick >/dev/null
"$bin" --seed "$seed" --out "$out/a.json"
"$bin" --seed "$seed" --out "$out/b.json"
"$bin" --compare "$out/a.json" "$out/b.json"
