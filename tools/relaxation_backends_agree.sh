#!/bin/sh
# Over-relaxation runs in the shared packed kernels, so every solver-free
# backend must relax the same way: serial, threaded, simt and multigpu
# report the same status, iteration count and objective bits (--json
# "objective_hex") for builtin:ieee13 at --relaxation 1.6.
#
# usage: relaxation_backends_agree.sh <path-to-dopf_solve>
set -eu

solve="$1"
want=""
for backend in serial "threaded --threads 4" simt "multigpu --devices 3"; do
  # shellcheck disable=SC2086  # $backend is a deliberate word list
  json=$("$solve" builtin:ieee13 --relaxation 1.6 --json --backend $backend |
    grep '^{"algorithm"') || true
  got=$(printf '%s\n' "$json" | sed -n \
    's/.*"status":"\([^"]*\)".*"iterations":\([0-9]*\).*"objective_hex":"\([^"]*\)".*/\1 \2 \3/p')
  echo "$backend: $got"
  [ -n "$got" ] || { echo "no --json result from $backend" >&2; exit 1; }
  if [ -z "$want" ]; then
    want="$got"
  elif [ "$got" != "$want" ]; then
    echo "$backend differs from serial ($want)" >&2
    exit 1
  fi
done
