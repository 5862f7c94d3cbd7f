#!/usr/bin/env bash
# Code-size ratchet.
#
# Prints the code lines of every crate's `src/*.rs` — a code line is one
# that is neither blank nor starts with `//`, i.e. `grep -cvE '^\s*(//|$)'`
# — and fails when dfo-core + dfo-service together exceed CEILING. Like the
# BENCH_*.json baselines, the ceiling only moves when a PR moves it
# explicitly: lower it after deleting code, raise it (and say why in
# CHANGES.md) when a feature needs the room.
set -euo pipefail
cd "$(dirname "$0")/.."

CEILING=5400

loc() { cat "$1"/src/*.rs | grep -cvE '^\s*(//|$)'; }

for crate in crates/*/; do
  printf '%-20s %6d\n' "$(basename "$crate")" "$(loc "$crate")"
done

gated=$(( $(loc crates/dfo-core) + $(loc crates/dfo-service) ))
printf '%-20s %6d  (ceiling %d)\n' "core + service" "$gated" "$CEILING"
if [ "$gated" -gt "$CEILING" ]; then
  echo "loc.sh: dfo-core + dfo-service grew past the ceiling;" \
       "delete code or bump CEILING in tools/loc.sh explicitly" >&2
  exit 1
fi
