#!/bin/sh
# CLI checkpoint round-trip: solve while writing periodic checkpoints, then
# resume from the written file. Both invocations must converge (exit 0),
# and the resumed run must report the restore.
#
# usage: checkpoint_roundtrip.sh <path-to-dopf_solve> <scratch-dir>
#                                [checkpoint-every [extra dopf_solve args...]]
set -eu

solve="$1"
dir="$2"
every="${3:-40}"
[ $# -ge 3 ] && shift 3 || shift $#
work=$(mktemp -d "$dir/roundtrip.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM
ck="$work/roundtrip.ckpt"

"$solve" builtin:ieee13 --eps 1e-2 --max-iters 20000 "$@" \
  --checkpoint-every "$every" --checkpoint "$ck"
test -s "$ck" || { echo "checkpoint file was not written" >&2; exit 1; }
head -1 "$ck" | grep -q '^dopf-checkpoint v1$' || {
  echo "unexpected checkpoint header" >&2; exit 1;
}

"$solve" builtin:ieee13 --eps 1e-2 --max-iters 20000 "$@" --resume "$ck" \
  > "$work/resume.out"
cat "$work/resume.out"
grep -q '^resumed from ' "$work/resume.out" || {
  echo "resumed run did not report the restore" >&2; exit 1;
}
