#!/bin/sh
# Streaming smoke: a short ieee13 receding-horizon stream through one
# SolveSession must (a) solve only the first step cold and every later step
# warm, (b) refactorize exactly the switched component (one impedance-scale
# event -> one refactorization), (c) converge warm in fewer total iterations
# than the same steps solved cold, (d) write a replay record that is
# byte-identical across two runs, and (e) write that same record on the
# simt backend and on multigpu, also when a device dies mid-solve (which
# the stream then reports as one failover).
#
# Usage: stream_smoke.sh <dopf_solve-binary> <scratch-dir>
set -eu

SOLVE="$1"
DIR="$2"
work=$(mktemp -d "$DIR/stream_smoke.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM
PROFILE="$work/stream_smoke.profile"
OUT="$work/stream_smoke.out"
REC1="$work/stream_smoke.rec1"
REC2="$work/stream_smoke.rec2"

cat > "$PROFILE" <<'EOF'
# Six 5-minute steps: a load dip, a load peak, and one switching event.
profile smoke
steps 6
dt 300
step 0
  load constant scale 0.95
step 2
  load constant scale 1.05
step 4
  load constant scale 1.00
  switch 632-645 impedance-scale 1.5
EOF

"$SOLVE" --stream "$PROFILE" --cold-compare --stream-record "$REC1" \
  builtin:ieee13 | tee "$OUT"

grep -q "session: 6 solve(s) (1 cold, 5 warm)" "$OUT" || {
  echo "FAIL: expected 1 cold + 5 warm solves for a 6-step stream" >&2
  exit 1
}
grep -q "1 component refactorization(s)" "$OUT" || {
  echo "FAIL: one switch event must cost exactly one refactorization" >&2
  exit 1
}

# Per-step lines read "... in W iterations (warm) vs C cold ..."; the
# warm-started stream must need fewer iterations in total.
awk '
  /\(warm\) vs [0-9]+ cold/ {
    for (i = 1; i <= NF; ++i) {
      if ($i == "in") warm += $(i + 1)
      if ($i == "vs") cold += $(i + 1)
    }
  }
  END {
    printf "stream smoke: warm %d vs cold %d total iterations\n", warm, cold
    if (warm <= 0 || warm >= cold) {
      print "FAIL: warm-started stream not faster than cold" > "/dev/stderr"
      exit 1
    }
  }' "$OUT"

# Replay determinism: a second run must serialize byte-identically.
"$SOLVE" --stream "$PROFILE" --cold-compare --stream-record "$REC2" \
  builtin:ieee13 > /dev/null
cmp "$REC1" "$REC2" || {
  echo "FAIL: stream replay records differ between two identical runs" >&2
  exit 1
}
echo "stream smoke: replay record byte-identical across runs"

# Every backend runs the stream through the same driver, so the replay
# record must be serial's byte for byte; a device kill fails over and
# replays from the restart point, so it must not show either, and the
# stream reports the one failover.
for run in "simt" "multigpu --devices 3" \
           "multigpu --devices 3 --faults kill:device=1,iter=137"; do
  "$SOLVE" --stream "$PROFILE" --cold-compare --stream-record "$REC2" \
    --backend $run builtin:ieee13 > "$OUT"
  cmp "$REC1" "$REC2" || {
    echo "FAIL: stream replay record differs from serial on $run" >&2
    exit 1
  }
done
grep -q "fault recovery: 1 failover(s)" "$OUT" || {
  echo "FAIL: the device kill left no fault recovery report" >&2
  exit 1
}
echo "stream smoke: simt and multigpu records match serial"
