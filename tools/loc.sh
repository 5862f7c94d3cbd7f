#!/usr/bin/env bash
# Code-size ratchet.
#
# Prints the code lines of every crate's `src/*.rs` — a code line is one
# that is neither blank nor starts with `//`, i.e. `grep -cvE '^\s*(//|$)'`
# — and fails when a gated group of crates exceeds its ceiling: dfo-core +
# dfo-service (the engine and the executor), dfo-types + dfo-part (the
# config/codec vocabulary and preprocessing), dfo-net + dfo-obs (the
# transport and telemetry) and dfo-storage (disks, codecs, caches, the
# block store and the memory pools). Like the BENCH_*.json
# baselines, a ceiling only moves when a PR moves it explicitly: lower it
# after deleting code, raise it (and say why in CHANGES.md) when a feature
# needs the room.
set -euo pipefail
cd "$(dirname "$0")/.."

loc() { cat "$1"/src/*.rs | grep -cvE '^\s*(//|$)'; }

for crate in crates/*/; do
  printf '%-20s %6d\n' "$(basename "$crate")" "$(loc "$crate")"
done

status=0
# ratchet <ceiling> <crate>...
ratchet() {
  local ceiling=$1 sum=0 label=""
  shift
  for crate in "$@"; do
    sum=$(( sum + $(loc "crates/$crate") ))
    label="$label${label:+ + }${crate#dfo-}"
  done
  printf '%-20s %6d  (ceiling %d)\n' "$label" "$sum" "$ceiling"
  if [ "$sum" -gt "$ceiling" ]; then
    echo "loc.sh: $label grew past the ceiling;" \
         "delete code or bump the ceiling in tools/loc.sh explicitly" >&2
    status=1
  fi
}
ratchet 5304 dfo-core dfo-service
ratchet 3062 dfo-types dfo-part
ratchet 2718 dfo-net dfo-obs
ratchet 3576 dfo-storage
exit $status
