#!/usr/bin/env bash
# Thread-spawn failure check. Under an address-space limit that fits a
# 4-thread solve but not 200 threads, every command that starts a group of
# threads (the work-stealing pool, the SPMD DP, the service shards) must
# fail cleanly — exit 1 with an `error:` line — instead of aborting through
# std::terminate on a still-joinable std::thread (exit 134).
#
#   tools/check_spawn_failure.sh <pcmax-binary> <instance-file>
#
# Registered as the `cli_spawn_failure` ctest, except in ASan/TSan trees:
# `ulimit -v` breaks their shadow-memory reservation.
set -euo pipefail

pcmax="$1"
file="$2"
limit_kb=400000

# Thread stacks are sized from the stack rlimit; pin it so the limit above
# separates 4 threads from 200 regardless of the caller's setting.
ulimit -s 8192 2>/dev/null || true

run_limited() { (ulimit -v "$limit_kb" && "$pcmax" "$@"); }

if ! run_limited solve --file "$file" --limit 1 --threads 4 >/dev/null; then
  echo "error: a 4-thread solve must fit under ulimit -v $limit_kb" >&2
  exit 1
fi

for args in "solve --threads 200" \
            "solve --solver spmd-ptas --threads 200" \
            "batch --workers 200"; do
  # shellcheck disable=SC2086  # $args is a word list on purpose
  if stderr="$(run_limited $args --file "$file" --limit 1 2>&1 >/dev/null)"; then
    status=0
  else
    status=$?
  fi
  if [ "$status" -ne 1 ] || ! grep -q '^error: ' <<<"$stderr"; then
    echo "error: 'pcmax $args' under ulimit -v $limit_kb exited $status" >&2
    echo "(expected 1 with an error: line); stderr was:" >&2
    printf '%s\n' "$stderr" >&2
    exit 1
  fi
  echo "ok: pcmax $args -> exit 1, $(grep -m1 '^error: ' <<<"$stderr")"
done
