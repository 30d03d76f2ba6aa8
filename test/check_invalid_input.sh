#!/usr/bin/env bash
# Malformed command-line input is a usage error: exit 124, never an
# uncaught exception. Every malformed topology SPEC additionally prints one
# line, "damd: invalid topology SPEC: REASON", on stderr.
#
# Usage: check_invalid_input.sh PATH/TO/damd_cli.exe
set -u
cli="$1"
status=0
for spec in as:0:2 ba:3:5 torus:1:1 ring:2 chordal:4:10 waxman:1 garbage er:5:-1; do
  for cmd in topo analyze; do
    err=$("$cli" "$cmd" -t "$spec" 2>&1 >/dev/null)
    code=$?
    if [ "$code" -eq 124 ] \
      && [ "$(printf '%s\n' "$err" | wc -l)" -eq 1 ] \
      && [[ "$err" == "damd: invalid topology $spec: "* ]]; then
      echo "ok $cmd -t $spec: $err"
    else
      echo "FAIL $cmd -t $spec: exit $code, stderr:"
      printf '%s\n' "$err"
      status=1
    fi
  done
done
# Bad --deviant specs (one line, "damd: invalid --deviant SPEC: REASON")
# and values outside a closed vocabulary (Cmdliner's enum error).
while read -r -a args; do
  err=$("$cli" "${args[@]}" 2>&1 >/dev/null)
  code=$?
  line_ok=true
  if [[ "${args[*]}" == *--deviant* ]]; then
    [ "$(printf '%s\n' "$err" | wc -l)" -eq 1 ] \
      && [[ "$err" == "damd: invalid --deviant "* ]] || line_ok=false
  fi
  if [ "$code" -eq 124 ] && $line_ok && [[ "$err" != *"uncaught exception"* ]]; then
    echo "ok ${args[*]}: $(printf '%s\n' "$err" | head -n 1)"
  else
    echo "FAIL ${args[*]}: exit $code, stderr:"
    printf '%s\n' "$err"
    status=1
  fi
done <<'CASES'
routing -t fig1 --deviant 99:misreport:5
routing --deviant 0:bogus
routing --deviant x:misreport
routing --deviant 1:misreport:abc
election -t fig1 --deviant 99:x
trace --deviant 7:silent
lint --mutate nosuch
verify --mutate nosuch
analyze --mutate nosuch
verify --por maybe
gauntlet --weaken bogus
tla --deviation nosuch
CASES
exit "$status"
