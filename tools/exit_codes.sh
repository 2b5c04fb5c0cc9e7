#!/bin/sh
# Exit-code contract for dopf_solve. Scripts and CI dispatch on these, so
# each documented code is pinned here:
#   0  converged / reference optimal
#   1  usage or input errors
#   2  iteration limit without convergence
#   3  divergence (non-finite iterates)
#   4  stalled (watchdog gave up on a persistent stall)
#   5  preflight rejected the input (sanitation or conditioning)
#   6  cancelled (signal or --deadline) — final durable checkpoint written
#   7  durable I/O failure (retries exhausted or simulated crash)
#
# usage: exit_codes.sh <path-to-dopf_solve>
set -u

solve="$1"
failures=0

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT INT TERM

# A numerically degenerate (but structurally valid and feasible) feeder:
# line l1's impedance is constructed so its two voltage-coupling rows are
# nearly parallel (1 - |cos| ~ 1e-13) — the raw Gram matrix is on the edge
# of losing positive definiteness. Strict preflight must refuse it with row
# provenance (exit 5); warn/auto must solve it (exit 0) since RREF recovers
# a well-conditioned block.
degenerate="$tmpdir/degenerate.feeder"
cat > "$degenerate" <<'EOF'
feeder v1
bus src ab 1 1 1 1 1 1 0 0 0 0 0 0
bus b1 ab 0.9025 0.9025 0.9025 1.1025 1.1025 1.1025 0 0 0 0 0 0
bus b2 ab 0.9025 0.9025 0.9025 1.1025 1.1025 1.1025 0 0 0 0 0 0
gen g1 src ab 0 0 0 inf inf inf -inf -inf -inf inf inf inf 1
load d1 b2 ab wye 0 0 0 0 0 0 1e-8 1e-8 0 0 0 0
line l1 src b1 ab 0 1 1 1 inf inf inf 866025 0 0 0 866025 0 0 0 0 500000 1000000 0 -1000000 -500000 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
line l2 b1 b2 ab 0 1 1 1 inf inf inf 0.01 0 0 0 0.01 0 0 0 0 0.01 0 0 0 0.01 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
EOF

# And a structurally corrupt one: NaN load data must be rejected by every
# preflight policy (and by the feeder parser's non-finite gate, exit 1,
# before preflight even sees it).
corrupt="$tmpdir/corrupt.feeder"
sed 's/1e-8 1e-8 0/nan 1e-8 0/' "$degenerate" > "$corrupt"

expect() {
  want="$1"; label="$2"; shift 2
  "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $label: expected exit $want, got $got" >&2
    failures=$((failures + 1))
  else
    echo "ok: $label -> $got"
  fi
}

expect 0 "converged" \
  "$solve" builtin:ieee13 --eps 1e-2 --max-iters 20000
expect 1 "usage error" \
  "$solve" --frobnicate builtin:ieee13
expect 1 "bad input" \
  "$solve" /nonexistent.feeder
expect 2 "iteration limit" \
  "$solve" builtin:ieee13 --max-iters 5
expect 3 "diverged" \
  "$solve" builtin:ieee13 --rho 1e308 --max-iters 1000
expect 4 "stalled" \
  "$solve" builtin:ieee13_overload --max-iters 20000 --watchdog
expect 5 "preflight strict rejection" \
  "$solve" "$degenerate" --strict
expect 5 "preflight strict rejection (preflight-only)" \
  "$solve" "$degenerate" --strict --preflight-only
expect 0 "preflight auto remediation solves the degenerate feeder" \
  "$solve" "$degenerate" --preflight auto --eps 1e-2 --max-iters 20000
expect 0 "default warn policy also solves it" \
  "$solve" "$degenerate" --eps 1e-2 --max-iters 20000
expect 1 "non-finite feeder data rejected by the parser" \
  "$solve" "$corrupt" --preflight off
expect 1 "fault on a device the backend does not have" \
  "$solve" builtin:ieee13 --backend multigpu --devices 3 \
    --checkpoint-every 50 --faults "kill:device=7,iter=120"
expect 1 "fault spec and backend checked before the algorithm runs" \
  "$solve" builtin:ieee13 --algorithm reference --backend multigpu \
    --faults "explode:device=0,iter=1"

# Scenario sweeps keep the contract: an unknown override target is an
# input error, a scenario the delta preflight refuses exits 5, and a
# deadline stops the sweep at a scenario boundary with 6.
sweep="$tmpdir/sweep.scenarios"
printf 'scenario light\n  load constant scale 0.9\nend\n' > "$sweep"
typo="$tmpdir/typo.scenarios"
printf 'scenario typo\n  load nosuch scale 1.1\nend\n' > "$typo"
overflow="$tmpdir/overflow.scenarios"
printf 'scenario boom\n  gen * cost-scale 1e308\n  gen * cost-scale 1e308\nend\n' \
  > "$overflow"
expect 1 "sweep: unknown scenario target" \
  "$solve" --scenarios "$typo" builtin:ieee13
expect 5 "sweep: scenario rejected by preflight" \
  "$solve" --scenarios "$overflow" builtin:ieee13
expect 6 "sweep: deadline cancellation" \
  "$solve" --scenarios "$sweep" builtin:ieee123 --eps 1e-12 \
    --max-iters 100000000 --deadline 0.05

# expect_out CODE REGEX LABEL CMD...: exit CODE with stdout matching REGEX
# (an empty REGEX wants empty stdout).
expect_out() {
  want="$1"; regex="$2"; label="$3"; shift 3
  out=$("$@" 2>/dev/null)
  got=$?
  if [ "$got" -ne "$want" ] || { [ -z "$regex" ] && [ -n "$out" ]; } ||
     { [ -n "$regex" ] && ! printf '%s\n' "$out" | grep -q "$regex"; }; then
    echo "FAIL: $label: expected exit $want and stdout '$regex', got $got" >&2
    failures=$((failures + 1))
  else
    echo "ok: $label -> $got"
  fi
}

# A base the strict preflight refuses is refused on the sweep and stream
# paths too: exit 5 with the verdict on stdout, before any step is solved.
printf 'scenario light\n  load * scale 0.9\nend\n' > "$tmpdir/base.scenarios"
printf 'profile base\nsteps 2\nstep 1\n  load * scale 0.9\n' \
  > "$tmpdir/base.profile"
expect_out 5 '^verdict: REJECTED' "sweep: strict base rejection" \
  "$solve" "$degenerate" --strict --scenarios "$tmpdir/base.scenarios"
expect_out 5 '^verdict: REJECTED' "stream: strict base rejection" \
  "$solve" "$degenerate" --strict --stream "$tmpdir/base.profile"
# The base is prepared before the sweep and stream inputs are checked, so a
# refused base wins over an unknown scenario target or an out-of-range
# checkpoint step, each of which exits 1 on a base that is accepted.
expect 1 "stream: checkpoint step out of range" \
  "$solve" builtin:ieee13 --stream "$tmpdir/base.profile" \
    --checkpoint "$tmpdir/base.ckpt" --checkpoint-at-step 9
expect_out 5 '^verdict: REJECTED' "sweep: base rejection before target check" \
  "$solve" "$degenerate" --strict --scenarios "$typo"
expect_out 5 '^verdict: REJECTED' "stream: base rejection before step check" \
  "$solve" "$degenerate" --strict --stream "$tmpdir/base.profile" \
    --checkpoint "$tmpdir/base.ckpt" --checkpoint-at-step 9

# Algorithm, backend and preflight names are checked where their flag is
# read: a typo exits 1 before anything reaches stdout.
for flag in --algorithm --backend --preflight; do
  expect_out 1 '' "$flag bogus" "$solve" builtin:ieee13 "$flag" bogus
done

# Solve parameters outside their domain are refused where they are read:
# rho and eps finite and > 0 (1e308 stays the divergence pinned above),
# the relaxation in (0, 2), the deadline finite and >= 0.
for bad in "--rho nan" "--rho -5" "--rho 0" "--eps nan" "--eps 0" \
    "--relaxation 7" "--relaxation 2" "--relaxation 0" "--deadline nan" \
    "--deadline -3"; do
  # $bad is a flag and its value: split on purpose.
  expect_out 1 '' "$bad" "$solve" builtin:ieee13 $bad
done

# A flag the run would ignore is refused: a sweep writes no checkpoint, and
# only the solver-free ADMM resumes, checkpoints or runs the watchdog.
expect_out 1 '' "--scenarios with --checkpoint" \
  "$solve" builtin:ieee13 --scenarios "$sweep" --checkpoint "$tmpdir/sw.ckpt"
for alg in benchmark reference; do
  for flags in "--resume $tmpdir/none.ckpt" "--checkpoint $tmpdir/x.ckpt" \
      "--checkpoint-every 5 --checkpoint $tmpdir/x.ckpt" "--watchdog" \
      "--resume /nonexistent.ckpt --checkpoint-every 5 --checkpoint $tmpdir/X"
  do
    expect_out 1 '' "--algorithm $alg $flags" \
      "$solve" builtin:ieee13 --algorithm "$alg" $flags
  done
done

# Flags only a single solve reads are refused on the sweep and stream paths,
# which would drop them; --threads and --devices are refused on a backend
# that would ignore them.
for flags in "--residuals $tmpdir/r.csv" "--output $tmpdir/o.csv" "--report"; do
  expect_out 1 '' "--scenarios with $flags" \
    "$solve" builtin:ieee13 --scenarios "$sweep" $flags
  expect_out 1 '' "--stream with $flags" \
    "$solve" builtin:ieee13 --stream "$tmpdir/base.profile" $flags
done
for flags in "--threads 8" "--threads 8 --backend serial" \
    "--threads 4 --backend multigpu" "--devices 5" \
    "--devices 3 --backend simt" "--devices 2 --backend threaded"; do
  expect_out 1 '' "$flags" "$solve" builtin:ieee13 --eps 1e-2 $flags
done

# --- cancellation (6) and durable I/O failure (7) ------------------------

# The reference IPM polls the cancel token once per iteration: a deadline
# that has passed before its first iteration (1 ns, armed before the feeder
# is even built) cancels it with 6.
expect 6 "reference IPM: expired deadline" \
  "$solve" builtin:ieee13 --algorithm reference --deadline 1e-9

# A deadline that cannot be met (tight eps on ieee123) must exit 6 and still
# write a valid final checkpoint.
expect 6 "deadline cancellation" \
  "$solve" builtin:ieee123 --eps 1e-12 --max-iters 100000000 \
    --deadline 0.05 --checkpoint "$tmpdir/deadline.ckpt"
if ! head -n 1 "$tmpdir/deadline.ckpt" | grep -q "dopf-checkpoint v1"; then
  echo "FAIL: deadline cancellation left no valid checkpoint" >&2
  failures=$((failures + 1))
else
  echo "ok: deadline cancellation wrote a valid checkpoint"
fi

# SIGINT mid-stream: the handler requests cooperative cancellation, the
# driver finishes the in-flight step boundary, durably checkpoints the last
# completed step into the A/B pair, and exits 6. The signal goes out once
# the first A/B slot exists, so the check does not depend on how fast the
# build solves a step; the 300 s cap only bounds a run that never writes
# one, which the slot check below then reports.
profile="$tmpdir/sigint.profile"
{
  echo "profile sigint"
  echo "steps 400"
  awk 'BEGIN { for (k = 0; k < 400; k += 2)
    printf "step %d\n  load constant scale %s\n", k, (k % 4 ? "0.95" : "1.05") }'
} > "$profile"
"$solve" --stream "$profile" --eps 1e-6 \
  --checkpoint "$tmpdir/sigint.ckpt" --checkpoint-every-steps 1 \
  builtin:ieee13 >/dev/null 2>&1 &
pid=$!
polls=0
until [ -f "$tmpdir/sigint.ckpt.a" ] || [ -f "$tmpdir/sigint.ckpt.b" ] ||
      [ "$polls" -ge 3000 ] || ! kill -0 "$pid" 2>/dev/null; do
  sleep 0.1
  polls=$((polls + 1))
done
kill -INT "$pid" 2>/dev/null
wait "$pid"
got=$?
if [ "$got" -ne 6 ]; then
  echo "FAIL: SIGINT mid-stream: expected exit 6, got $got" >&2
  failures=$((failures + 1))
else
  echo "ok: SIGINT mid-stream -> 6"
fi
slot=""
for s in "$tmpdir/sigint.ckpt.a" "$tmpdir/sigint.ckpt.b"; do
  [ -f "$s" ] && slot="$s"
done
if [ -z "$slot" ] || ! head -n 1 "$slot" | grep -q "dopf-checkpoint v1"; then
  echo "FAIL: SIGINT left no durable A/B checkpoint slot" >&2
  failures=$((failures + 1))
else
  echo "ok: SIGINT wrote durable checkpoint slot $(basename "$slot")"
fi

# Simulated crash during a checkpoint write: exit 7, temp file left behind
# (a crashed process cleans nothing up), target never torn.
expect 7 "simulated crash during durable write" \
  "$solve" builtin:ieee13 --eps 1e-2 --max-iters 20000 \
    --checkpoint "$tmpdir/crash.ckpt" --checkpoint-every 10 \
    --io-faults "crash:op=1,path=crash.ckpt"

# Persistent ENOSPC with the retry budget exhausted: exit 7.
expect 7 "durable write retries exhausted" \
  "$solve" builtin:ieee13 --eps 1e-2 --max-iters 20000 \
    --checkpoint "$tmpdir/enospc.ckpt" --checkpoint-every 10 \
    --io-faults "enospc:op=1,times=99,path=enospc.ckpt"

exit "$failures"
