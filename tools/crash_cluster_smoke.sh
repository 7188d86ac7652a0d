#!/usr/bin/env sh
# Process-level crash/recovery smoke (DESIGN.md §10): a three-OS-process
# TCP cluster where every member persists to its own --data-dir. One
# joiner is SIGKILLed mid-run, once it holds checkpoint 6 or later — no
# shutdown path runs, exactly like a machine losing power — then
# restarted over the same directory while the last member joins. The
# restarted process must restore from its latest checkpoint + block log,
# state-sync whatever the cluster built while it was down, and converge:
# all three processes must exit 0 (identical DAG + interpretation
# digests, Lemma 3.7 / 4.2), and the restarted one must report
# `restored=yes` — recovery came from durable state, not a fresh replay
# of the whole history.
#
# Usage: tools/crash_cluster_smoke.sh <path-to-simctl>
#
# Ports are derived from this shell's PID and retried on bind collision
# (simctl exits 2 when an acceptor cannot bind), so parallel ctest
# invocations do not trample each other.
set -u

simctl="${1:?usage: crash_cluster_smoke.sh <path-to-simctl>}"

workdir=$(mktemp -d "${TMPDIR:-/tmp}/crash_smoke.XXXXXX") || exit 1
cleanup() {
  [ -n "${join1_pid:-}" ] && kill "$join1_pid" 2>/dev/null
  [ -n "${join2_pid:-}" ] && kill -KILL "$join2_pid" 2>/dev/null
  [ -n "${serve_pid:-}" ] && kill "$serve_pid" 2>/dev/null
  wait 2>/dev/null
  rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

attempt=0
while [ "$attempt" -lt 5 ]; do
  port=$(( 21013 + ($$ + attempt * 613) % 40000 ))
  rm -rf "$workdir/s0" "$workdir/s1" "$workdir/s2"
  echo "==> attempt $((attempt + 1)): three-process durable cluster on 127.0.0.1:$port"

  common="--n 3 --port $port --instances 12 --interval 100 --seconds 60 --checkpoint 4"
  # Member 1 starts late. Until it issues its share of the workload no
  # member can finish, so servers 0 and 2 keep building blocks, and
  # member 2 keeps taking checkpoint epochs, for as long as this needs.
  # shellcheck disable=SC2086  # $common is a flat flag list on purpose
  "$simctl" serve $common --data-dir "$workdir/s0" &
  serve_pid=$!
  # shellcheck disable=SC2086
  "$simctl" join --id 2 $common --data-dir "$workdir/s2" > "$workdir/pre.log" &
  join2_pid=$!

  # Pull the plug once member 2 holds checkpoint 6 or later: server 0
  # holds the blocks member 2 built, so a restart that reused a sequence
  # number would equivocate; the data dir holds real durable state, so
  # the restart below must report restored=yes; and rotation has deleted
  # epochs 1..5, so the restart must find the newest epoch by listing the
  # directory and replay the log chain behind it.
  ticks=0
  epoch=none
  while [ "$ticks" -lt 400 ]; do
    for f in "$workdir"/s2/checkpoint-*.ckpt; do
      [ -e "$f" ] || continue
      epoch=${f##*/checkpoint-}
      epoch=${epoch%.ckpt}
      [ "$epoch" -ge 6 ] 2>/dev/null && break 2
    done
    ticks=$((ticks + 1))
    sleep 0.05
  done
  if ! kill -KILL "$join2_pid" 2>/dev/null; then
    # Member 2 already exited (a bind failure exits 2): no crash was
    # injected, so the attempt proves nothing. Stop and try again.
    echo "==> member 2 exited before the kill; retrying"
    kill "$serve_pid" 2>/dev/null
    wait "$serve_pid" "$join2_pid" 2>/dev/null
    serve_pid=""; join2_pid=""
    attempt=$((attempt + 1))
    continue
  fi
  echo "==> SIGKILLed member 2 (pid $join2_pid) at checkpoint $epoch"
  wait "$join2_pid" 2>/dev/null
  sleep 1

  # shellcheck disable=SC2086
  "$simctl" join --id 1 $common --data-dir "$workdir/s1" &
  join1_pid=$!
  echo "==> restarting member 2 from $workdir/s2"
  # shellcheck disable=SC2086
  "$simctl" join --id 2 $common --data-dir "$workdir/s2" > "$workdir/post.log"
  join2_rc=$?
  join2_pid=""
  cat "$workdir/post.log"
  wait "$serve_pid"
  serve_rc=$?
  serve_pid=""
  wait "$join1_pid"
  join1_rc=$?
  join1_pid=""

  if [ "$serve_rc" -eq 0 ] && [ "$join1_rc" -eq 0 ] && [ "$join2_rc" -eq 0 ]; then
    if ! grep -q "restored=yes" "$workdir/post.log"; then
      echo "==> FAIL: member 2 converged but never restored from its data dir" >&2
      exit 1
    fi
    echo "==> OK: SIGKILLed member restored from disk and the cluster converged"
    exit 0
  fi
  # Exit code 2 = bind failure (port collision): retry on different ports.
  if [ "$serve_rc" -ne 2 ] && [ "$join1_rc" -ne 2 ] && [ "$join2_rc" -ne 2 ]; then
    echo "==> FAIL: serve exit $serve_rc, join1 exit $join1_rc, join2 exit $join2_rc" >&2
    exit 1
  fi
  attempt=$((attempt + 1))
done

echo "==> FAIL: could not find a free port triple after $attempt attempts" >&2
exit 1
