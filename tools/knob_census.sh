#!/usr/bin/env bash
# Knob census: every field of every options struct under src/ (a struct
# named *Options or *Config) must be assigned somewhere, by a statement of
# the form `x.field = ...` or `x->field = ...` (a designated initializer
# `.field = ...` counts too) in src/, tools/, bench/, examples/, tests/ or
# perfbench/. A field that nothing ever sets is a constant written as a
# knob: it doubles what tests and benchmarks must cover while only its
# default is ever run. Make it a named constant at its use site instead.
#
# Fields that are set where the pattern cannot see it, by aggregate
# initialization (`Config{threads}`) or in the struct's own constructor,
# are exempted by name in tools/knob_census_allow.txt, one `Struct::field`
# per line (`#` comments).
# The match is by field name, so one assignment of `x.tol` covers every
# struct's `tol`.
#
# Usage: tools/knob_census.sh        (exit 0 clean, 1 on an unset field)
set -euo pipefail

cd "$(dirname "$0")/.."
export LC_ALL=C
allow=tools/knob_census_allow.txt

# Struct::field file:line for every data member of every options struct.
# Brace depth is tracked per line; members are the declarations at depth 1
# that remain after template arguments are removed and that contain no
# parenthesis (member functions and constructors do).
fields=$(find src -name '*.hpp' -o -name '*.cpp' | sort | xargs awk '
  FNR == 1 { depth = 0; name = "" }
  {
    line = $0
    sub(/\/\/.*/, "", line)
    if (name == "" && match(line, /struct [A-Za-z_]*(Options|Config)[ ]*\{/)) {
      head = substr(line, RSTART + 7)
      sub(/[ ]*\{.*/, "", head)
      name = head; depth = 0; open = 1
    }
    if (name != "" && depth == 1 && !open) {
      decl = line
      while (gsub(/<[^<>]*>/, "", decl)) {}
      if (decl ~ /;[ ]*$/ && decl !~ /[()]/ &&
          decl !~ /^[ ]*(using|static|friend|enum|struct|class|return)[ ]/) {
        sub(/[ ]*(=.*|\{.*)?;[ ]*$/, "", decl)
        if (match(decl, /[A-Za-z_][A-Za-z0-9_]*$/))
          printf "%s::%s %s:%d\n", name, substr(decl, RSTART), FILENAME, FNR
      }
    }
    open = 0
    if (name != "") {
      depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
      if (depth <= 0) name = ""
    }
  }')

# Every field name some statement assigns through `.` or `->`; in a member
# path (`x.lp.cancel = ...`) every member on the path counts as set.
assigned=$(grep -rhoE --include='*.hpp' --include='*.cpp' \
             '((\.|->)[A-Za-z_][A-Za-z0-9_]*)+[[:space:]]*=([^=]|$)' \
             src tools bench examples tests perfbench |
           sed -E 's/[[:space:]]*=.*$//; s/->/./g; s/^\.//' | tr . '\n' |
           sort -u)

allowed=$(sed -e 's/#.*//' -e 's/[[:space:]]//g' "$allow" | grep -v '^$' |
          sort -u || true)

count=$(printf '%s\n' "$fields" | grep -c . || true)
unset_fields=()
while read -r qualified where; do
  [ -n "$qualified" ] || continue
  field=${qualified##*::}
  if grep -qxF -- "$field" <<< "$assigned"; then continue; fi
  if grep -qxF -- "$qualified" <<< "$allowed"; then continue; fi
  unset_fields+=("$qualified ($where)")
done <<< "$fields"

# A stale allowlist entry hides nothing today but would hide a knob later.
stale=()
while read -r entry; do
  [ -n "$entry" ] || continue
  grep -q "^${entry} " <<< "$fields" || stale+=("$entry")
done <<< "$allowed"

status=0
if [ "${#unset_fields[@]}" -gt 0 ]; then
  echo "knob census: ${#unset_fields[@]} of ${count} option fields that" \
       "nothing sets:"
  printf '  %s\n' "${unset_fields[@]}"
  status=1
fi
if [ "${#stale[@]}" -gt 0 ]; then
  echo "knob census: allowlist entries that name no options field:"
  printf '  %s\n' "${stale[@]}"
  status=1
fi
[ "$status" -eq 0 ] && echo "knob census: ${count} option fields, every one set"
exit "$status"
