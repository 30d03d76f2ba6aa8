#!/usr/bin/env bash
# Every malformed topology SPEC is a command-line error: exit 124 and a
# one-line "damd: invalid topology SPEC: REASON" on stderr, never an
# uncaught exception.
#
# Usage: check_invalid_topology.sh PATH/TO/damd_cli.exe
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
exit "$status"
