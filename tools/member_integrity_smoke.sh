#!/usr/bin/env sh
# A cluster member runs the same checkers as every other runtime: `simctl
# serve --instances 3` beside `simctl join --instances 6` over localhost
# TCP. Member 0 then delivers labels 103 and 105 (the joiner's), which its
# own plan never broadcast: its BRB checker must report an integrity
# violation, and both members exit 1 (the joiner waits in vain for 104).
#
# Usage: tools/member_integrity_smoke.sh <path-to-simctl>
# Ports derive from this shell's PID and are retried when a bind fails
# (simctl exits 2).
set -u

simctl="${1:?usage: member_integrity_smoke.sh <path-to-simctl>}"

out=$(mktemp "${TMPDIR:-/tmp}/member_integrity.XXXXXX") || exit 1
trap 'rm -f "$out"' EXIT INT TERM

attempt=0
while [ "$attempt" -lt 5 ]; do
  port=$(( 20017 + ($$ + 257 + attempt * 613) % 40000 ))
  echo "==> attempt $((attempt + 1)): two-process BRB cluster on 127.0.0.1:$port"

  "$simctl" join --id 1 --n 2 --port "$port" --instances 6 --seconds 3 >/dev/null &
  join_pid=$!
  "$simctl" serve --n 2 --port "$port" --instances 3 --seconds 3 > "$out"
  serve_rc=$?
  wait "$join_pid"
  join_rc=$?

  if [ "$serve_rc" -ne 2 ] && [ "$join_rc" -ne 2 ]; then
    grep VIOLATION "$out"
    if [ "$serve_rc" -eq 1 ] && [ "$join_rc" -eq 1 ] &&
       grep -q "VIOLATION: integrity violated: delivery for unknown label 10[35]" "$out"; then
      echo "==> OK: member 0 reported the foreign deliveries and both members exited 1"
      exit 0
    fi
    echo "==> FAIL: serve exit $serve_rc, join exit $join_rc" >&2
    exit 1
  fi
  # Exit code 2 = bind failure (port collision): retry on different ports.
  attempt=$((attempt + 1))
done

echo "==> FAIL: could not find a free port pair after $attempt attempts" >&2
exit 1
