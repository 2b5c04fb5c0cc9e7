#!/bin/sh
# Session-reuse smoke: a 3-scenario sweep on ieee13 through one SolveSession
# must (a) perform exactly one full topology precompute, (b) need zero
# refactorizations for load/cost-only scenarios, (c) converge warm in
# fewer total iterations than the same scenarios solved cold, and (d) give
# the same per-scenario status, iterations and objective on the simt and
# multigpu backends as on serial.
#
# Usage: session_smoke.sh <dopf_solve-binary> <scratch-dir>
set -eu

SOLVE="$1"
DIR="$2"
work=$(mktemp -d "$DIR/session_smoke.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM
SCEN="$work/session_smoke.scenarios"
OUT="$work/session_smoke.out"

cat > "$SCEN" <<'EOF'
# Three perturbations of the base feeder; each applies to the BASE case.
scenario light
  load constant scale 0.9
end
scenario heavy
  load constant scale 1.1
end
scenario pricey
  gen * cost-scale 1.3
end
EOF

"$SOLVE" --scenarios "$SCEN" --cold-compare builtin:ieee13 | tee "$OUT"

grep -q "1 full precompute" "$OUT" || {
  echo "FAIL: expected exactly one full precompute for the sweep" >&2
  exit 1
}
grep -q "3 precompute reuse(s), 0 refactorization(s)" "$OUT" || {
  echo "FAIL: load/cost-only sweep must reuse the precompute with zero" \
       "refactorizations" >&2
  exit 1
}

# Per-scenario lines read "... in W iterations (warm) vs C cold ...";
# the warm-started sweep must need fewer iterations in total.
awk '
  /\(warm\) vs [0-9]+ cold/ {
    for (i = 1; i <= NF; ++i) {
      if ($i == "in") warm += $(i + 1)
      if ($i == "vs") cold += $(i + 1)
    }
  }
  END {
    printf "session smoke: warm %d vs cold %d total iterations\n", warm, cold
    if (warm <= 0 || warm >= cold) {
      print "FAIL: warm-started sweep not faster than cold" > "/dev/stderr"
      exit 1
    }
  }' "$OUT"

# Every backend runs the sweep through the same driver: the per-scenario
# rows of --json (status, iterations, objective, rebind counters) must be
# serial's.
rows() {
  "$SOLVE" --scenarios "$SCEN" --json "$@" builtin:ieee13 | tail -n 1 |
    sed -n 's/.*"scenarios":\(\[.*"name":"pricey".*\]\),"session".*/\1/p'
}
serial_rows=$(rows)
[ -n "$serial_rows" ] || { echo "FAIL: no --json scenario rows" >&2; exit 1; }
for backend in simt multigpu; do
  [ "$(rows --backend $backend)" = "$serial_rows" ] || {
    echo "FAIL: --scenarios on $backend differs from serial" >&2
    exit 1
  }
done
echo "session smoke: simt and multigpu sweeps match serial per scenario"
