#!/usr/bin/env bash
# CI gate: run the verify suite three times — a plain Release pass, an
# ASan+UBSan pass (-DDOPF_SANITIZE=ON), and a ThreadSanitizer pass
# (-DDOPF_SANITIZE_THREAD=ON) scoped to the thread-dense serve/runtime
# suites. All must be green.
#
# Test tiers (see TESTING.md):
#   tier1 — fast deterministic tests; run in BOTH configurations. This
#           includes the fault-injection, checkpoint round-trip, and CLI
#           argument-audit suites (fault_test, checkpoint_test,
#           fault_recovery_test, cli_checkpoint_roundtrip, cli_* smoke
#           tests), so recovery paths are exercised under ASan/UBSan too.
#   tier2 — fuzz / differential / golden-trace suites (including the
#           verify_fault_* failover/corruption gates and the
#           verify_resume_* checkpoint-restart gates); Release only, so the
#           sanitizer pass stays fast and golden byte-for-byte comparisons
#           are never run under a differently-optimized build.
#
# Usage: tools/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_pass() {
  local dir="$1"
  local ctest_extra="$2"
  shift 2
  echo "=== configure ${dir} ($*) ==="
  cmake -B "${dir}" -S . "$@"
  echo "=== build ${dir} ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== test ${dir} (ctest ${ctest_extra:-<all tiers>}) ==="
  # shellcheck disable=SC2086  # ctest_extra is a deliberate word list
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" ${ctest_extra}
}

# Release: the full suite, tier1 + tier2 (golden traces, fuzzing).
run_pass build "" -DCMAKE_BUILD_TYPE=Release -DDOPF_SANITIZE=OFF

# Preflight gate: every builtin feeder — including the deliberately
# stressed ieee13_overload — must clear input sanitation + conditioning
# analysis (exit 0 from --preflight-only) before it is allowed to anchor
# benchmarks or golden traces.
echo "=== preflight smoke (all builtin feeders) ==="
for feeder in ieee13 ieee123 ieee8500_mini ieee8500 ieee13_overload; do
  ./build/tools/dopf_solve "builtin:${feeder}" --preflight-only
done

# Session-reuse gate: a scenario sweep through one SolveSession must
# precompute the topology exactly once, rebind load/cost scenarios without
# refactorizing, and warm-start in fewer total iterations than cold.
echo "=== session-reuse smoke (ieee13 scenario sweep) ==="
sh tools/session_smoke.sh ./build/tools/dopf_solve ./build

# Streaming gate: a receding-horizon stream must warm-start every step
# after the first, refactorize exactly the switched components, and write
# replay records that are byte-identical across runs (the tier2
# verify_stream_replay entry additionally proves checkpoint-resume tails
# replay byte-for-byte on ieee123).
echo "=== streaming smoke (ieee13 stream replay) ==="
sh tools/stream_smoke.sh ./build/tools/dopf_solve ./build

# Crash-recovery gate: a streaming day under seeded filesystem failpoints
# must either complete with byte-identical replay records or exit with the
# pinned durable-I/O code and resume from the last durable A/B checkpoint
# generation (the tier2 verify_crash_recovery entry runs the full 288-step
# ieee123 day).
echo "=== crash-recovery smoke (ieee13 failpoint sweep) ==="
sh tools/crash_recovery_check.sh ./build/tools/dopf_solve ./build

# Solve-server gate: a mixed request schedule through dopf_serve — ping,
# coalesced byte-identical solves, typed preflight/deadline/bad-request
# rejections, clean SIGTERM drain (the tier2 verify_serve_faults entry
# additionally replays storms under injected transport faults and proves
# drain-mid-solve resumes byte-identically from the durable checkpoint).
echo "=== serve smoke (mixed requests + graceful drain) ==="
sh tools/serve_smoke.sh ./build/tools/dopf_serve ./build/tools/dopf_client \
  ./build
# Wide-ISA lane: on hosts with AVX2+FMA, rebuild Release for x86-64-v3 and
# replay the golden traces, the checkpoint resumes and the failover rewind.
# The SIMD kernels must stay bit-identical when
# the compiler may use 256-bit registers and FMA instructions (the build
# pins -ffp-contract=off; DESIGN.md §11). Only dopf_verify is built: the
# golden gates are plain add_test entries.
if grep -qw avx2 /proc/cpuinfo && grep -qw fma /proc/cpuinfo; then
  echo "=== configure build-v3 (-march=x86-64-v3) ==="
  cmake -B build-v3 -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-march=x86-64-v3 -DDOPF_BUILD_BENCH=OFF \
    -DDOPF_BUILD_EXAMPLES=OFF
  cmake --build build-v3 -j "${JOBS}" --target dopf_verify
  echo "=== test build-v3 (golden traces) ==="
  ctest --test-dir build-v3 --output-on-failure -j "${JOBS}" \
    -R 'verify_golden|verify_session_golden|verify_resume|verify_fault_failover'
else
  echo "=== skip build-v3: host lacks avx2/fma ==="
fi

# Sanitizers: tier1 only.
run_pass build-asan "-LE tier2" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDOPF_SANITIZE=ON

# ThreadSanitizer lane: the serve stack is the most thread-dense code in
# the tree (connection readers, dispatcher threads, supervisor drain
# signaling, the MPSC ring), so it gets a dedicated TSan pass over the
# serve-side suites plus the shared-runtime concurrency tests. Scoped by
# the `threads` label (set in tests/CMakeLists.txt and on the cli_serve_*
# script tests) so the lane stays minutes, not hours; -R by suite name
# would silently match nothing, since gtest_discover_tests registers
# per-case names without the binary prefix.
run_pass build-tsan \
  "-L threads" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDOPF_SANITIZE_THREAD=ON

echo "=== ci.sh: all passes green ==="
