#!/usr/bin/env bash
# Reachability gate: every out-of-line dopf:: function the module libraries
# export must be reached by a shipped program, or be listed in
# tests/oracles.txt as a reference a test holds shipped code against.
#
# The shipped programs are every tool, bench and example of the root
# CMakeLists.txt plus perfbench's harness, built from its own unmodified
# perfbench/CMakeLists.txt against the same libraries. Everything is built
# at -O0 -fno-inline with one section per function and linked with
# --gc-sections, so a function survives in an executable exactly when a
# call path from main (or a kept vtable) reaches it. The script compares
# the global text symbols (nm T/W) of src/*/libdopf_*.a in namespace dopf
# (std:: and __gnu_cxx instantiations are out of scope) with the symbols
# the executables keep, and fails on
#   - an unreached dopf:: function that tests/oracles.txt does not list;
#   - a tests/oracles.txt entry the libraries no longer define;
#   - a tests/oracles.txt entry a program reaches (it is not test-only).
#
# Usage: tools/reachability.sh [build-dir]   (default: build-reach)
# JOBS sets the build parallelism (default: nproc).
set -euo pipefail

cd "$(dirname "$0")/.."
root="$PWD"
out="${1:-build-reach}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
jobs="${JOBS:-$(nproc)}"
oracles="$root/tests/oracles.txt"

flags=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -fno-inline -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

# Quiet builds: the log is shown only when a step fails.
run() {
  if ! "$@" >> "$out/build.log" 2>&1; then
    tail -n 40 "$out/build.log" >&2
    echo "reachability: '$*' failed (full log: $out/build.log)" >&2
    exit 1
  fi
}

echo "=== reachability: build programs into ${out} ==="
mkdir -p "$out"
: > "$out/build.log"
run cmake -S . -B "$out/dopf" "${flags[@]}" -DDOPF_BUILD_TESTS=OFF \
  -DDOPF_BUILD_BENCH=ON -DDOPF_BUILD_EXAMPLES=ON
run cmake --build "$out/dopf" -j "$jobs"
run cmake -S perfbench -B "$out/harness" "${flags[@]}" \
  -DDOPF_BUILD_DIR="$out/dopf"
run cmake --build "$out/harness" -j "$jobs"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM
export LC_ALL=C

programs=()
for f in "$out"/dopf/tools/* "$out"/dopf/bench/* "$out"/dopf/examples/* \
         "$out"/harness/perfbench_harness; do
  [ -f "$f" ] && [ -x "$f" ] || continue
  [ "$(head -c 4 "$f" | od -An -c | tr -d ' ')" = '177ELF' ] || continue
  programs+=("$f")
done
echo "programs: ${#programs[@]}"
[ "${#programs[@]}" -gt 0 ] || { echo "reachability: no programs built" >&2; exit 1; }

# Library: global text symbols in namespace dopf, demangled.
nm -g --defined-only "$out"/dopf/src/*/libdopf_*.a |
  awk '$2 == "T" || $2 == "W" { print $3 }' |
  grep -E '^_ZN[KRVO]*4dopf' | c++filt | sort -u > "$work/library"
# Programs: every symbol any executable keeps. Structor variants (C1/C2,
# D0/D1/D2) demangle to one name, so one kept variant counts as reached.
for p in "${programs[@]}"; do nm --defined-only "$p" | awk '{ print $3 }'; done |
  grep -E '^_ZN[KRVO]*4dopf' | c++filt | sort -u > "$work/reached"
# Oracles: the signature field of every non-comment line.
sed -e '/^[[:space:]]*#/d' -e '/^[[:space:]]*$/d' -e 's/ | .*$//' "$oracles" |
  sort > "$work/oracles"

comm -23 "$work/library" "$work/reached" > "$work/unreached"
comm -23 "$work/unreached" "$work/oracles" > "$work/unlisted"
comm -13 "$work/library" "$work/oracles" > "$work/stale"
comm -12 "$work/reached" "$work/oracles" > "$work/reached_oracles"
dups=$(uniq -d "$work/oracles")

echo "library functions: $(wc -l < "$work/library")," \
     "reached: $(comm -12 "$work/library" "$work/reached" | wc -l)," \
     "oracles: $(wc -l < "$work/oracles")"

status=0
report() {
  local file="$1" title="$2"
  if [ -s "$file" ]; then
    echo "FAIL: ${title}:"
    sed 's/^/  /' "$file"
    status=1
  fi
}
report "$work/unlisted" \
  "unreached by every program and not in tests/oracles.txt (delete it, or list it as an oracle)"
report "$work/stale" "tests/oracles.txt entries the libraries no longer define"
report "$work/reached_oracles" \
  "tests/oracles.txt entries a program reaches (not test-only; drop the entry)"
if [ -n "$dups" ]; then
  echo "FAIL: tests/oracles.txt lists these twice:"
  echo "$dups" | sed 's/^/  /'
  status=1
fi
[ "$status" -eq 0 ] && echo "=== reachability: clean ==="
exit "$status"
