#!/bin/sh
# Solve-server smoke: start dopf_serve on a scratch socket, drive a mixed
# request schedule through dopf_client, and drain with SIGTERM. Asserts:
#   - readiness ping answers
#   - a base solve converges and repeated identical requests coalesce onto
#     the cached model with byte-identical response lines
#   - a preflight-rejected request exits with the pinned code 5
#   - a deadline-exceeded request exits with the pinned code 6
#   - a malformed request exits with the pinned code 4
#   - SIGTERM drains cleanly: exit 0, no checkpoints left behind
#
# Usage: serve_smoke.sh <dopf_serve> <dopf_client> <scratch-dir>
set -eu

SERVE="$1"
CLIENT="$2"
DIR="$3"
work=$(mktemp -d "$DIR/serve_smoke.XXXXXX")
SOCK="$work/s.sock"
SRV_PID=""

# TERM -> bounded wait -> KILL: a wedged server must not wedge CI cleanup.
cleanup() {
  if [ -n "$SRV_PID" ]; then
    kill -TERM "$SRV_PID" 2>/dev/null || true
    for _ in 1 2 3 4 5 6 7 8 9 10; do
      kill -0 "$SRV_PID" 2>/dev/null || break
      sleep 0.2
    done
    kill -KILL "$SRV_PID" 2>/dev/null || true
    wait "$SRV_PID" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT INT TERM

failures=0
fail() {
  echo "FAIL: $1" >&2
  failures=$((failures + 1))
}

"$SERVE" --socket "$SOCK" --workers 2 --queue-depth 8 --no-fsync \
  > "$work/server.log" 2>&1 &
SRV_PID=$!

# Readiness: ping until the listener answers (the client retries connects
# internally, so a couple of attempts cover slow sandboxed startup).
ready=0
for _ in 1 2 3 4 5 6 7 8 9 10; do
  if "$CLIENT" --socket "$SOCK" --ping > /dev/null 2>&1; then
    ready=1
    break
  fi
  sleep 0.2
done
[ "$ready" = 1 ] || { cat "$work/server.log" >&2; \
  echo "FAIL: server never answered a readiness ping" >&2; exit 1; }

# Base solve: must converge (client exit 0, converged=1 on the line).
"$CLIENT" --socket "$SOCK" --feeder builtin:ieee13 --eps 1e-2 \
  > "$work/base.out" 2> "$work/base.err" \
  || fail "base solve exited $? (want 0)"
grep -q '^response id=1 status=converged converged=1 ' "$work/base.out" \
  || fail "base solve response line malformed: $(cat "$work/base.out")"

# Coalescing: three identical scenario requests must produce response lines
# that are byte-identical once the (deliberately distinct) ids are masked.
"$CLIENT" --socket "$SOCK" --feeder builtin:ieee13 --eps 1e-2 \
  --override "load * scale 1.05" --repeat 3 \
  > "$work/coalesce.out" 2> /dev/null \
  || fail "coalesced scenario solves exited $? (want 0)"
masked=$(sed 's/id=[0-9]*/id=N/' "$work/coalesce.out" | sort -u)
[ "$(printf '%s\n' "$masked" | wc -l)" = 1 ] \
  || fail "identical scenario requests returned differing responses"

# Preflight rejection: duplicated cost-scale overrides compose to an
# infinite cost, which scenario preflight refuses (pinned client exit 5).
rc=0
"$CLIENT" --socket "$SOCK" --feeder builtin:ieee13 --eps 1e-2 \
  --override "gen * cost-scale 1e200" --override "gen * cost-scale 1e200" \
  > "$work/preflight.out" 2> /dev/null || rc=$?
[ "$rc" = 5 ] || fail "preflight reject exited $rc (want 5)"
grep -q '^reject id=1 code=preflight ' "$work/preflight.out" \
  || fail "expected a typed preflight rejection: $(cat "$work/preflight.out")"

# Deadline: a 1 ms budget on a multi-second solve must come back as a
# typed deadline rejection (pinned client exit 6), not a late answer.
rc=0
"$CLIENT" --socket "$SOCK" --feeder builtin:ieee123 --eps 1e-4 \
  --deadline-ms 1 > "$work/deadline.out" 2> /dev/null || rc=$?
[ "$rc" = 6 ] || fail "deadline reject exited $rc (want 6)"
grep -q '^reject id=1 code=deadline ' "$work/deadline.out" \
  || fail "expected a typed deadline rejection: $(cat "$work/deadline.out")"

# Malformed request: an unknown builtin is a bad-request rejection (4)
# that names the builtins — the connection survives it, which the next
# request proves.
rc=0
"$CLIENT" --socket "$SOCK" --feeder builtin:frobnicate \
  > "$work/bad.out" 2> /dev/null || rc=$?
[ "$rc" = 4 ] || fail "bad-request exited $rc (want 4)"
want="^reject id=1 code=bad-request msg=unknown builtin 'frobnicate'"
want="$want (expected ieee13, ieee123, ieee8500, ieee8500_mini, ieee13_overload)\$"
grep -q "$want" "$work/bad.out" \
  || fail "expected a typed bad-request rejection: $(cat "$work/bad.out")"
"$CLIENT" --socket "$SOCK" --ping > /dev/null 2>&1 \
  || fail "server unreachable after a bad request"

# Graceful drain: SIGTERM with nothing in flight is a clean exit 0.
kill -TERM "$SRV_PID"
rc=0
wait "$SRV_PID" || rc=$?
SRV_PID=""
[ "$rc" = 0 ] || { cat "$work/server.log" >&2; \
  fail "drain exited $rc (want 0)"; }
grep -q 'dopf_serve: drained' "$work/server.log" \
  || fail "server did not log its drain summary"

if [ "$failures" -gt 0 ]; then
  echo "serve smoke: $failures failure(s)" >&2
  exit 1
fi
echo "serve smoke: all checks passed"
