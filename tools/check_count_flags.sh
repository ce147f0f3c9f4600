#!/usr/bin/env bash
# Count-flag range check. A negative or oversized value of a count flag
# (threads, workers, lanes, queue and cache capacities) must fail with exit
# 1 and an `error:` line naming the flag, instead of wrapping on the cast to
# an unsigned count: -1 used to become 2^32-1 workers (std::bad_alloc,
# exit 134) or a SIZE_MAX queue, and 4294967296 workers used to become 0.
#
#   tools/check_count_flags.sh <pcmax-binary> <instance-file>
#
# Every command runs under an address-space limit, so a regression that
# accepts the value again fails fast instead of allocating without bound.
# Registered as the `cli_count_flags` ctest, except in ASan/TSan trees:
# `ulimit -v` breaks their shadow-memory reservation.
set -euo pipefail

pcmax="$1"
file="$2"
limit_kb=2000000

run_limited() { (ulimit -v "$limit_kb" && "$pcmax" "$@"); }

check() {
  local flag="$1"
  shift
  local stderr status
  if stderr="$(run_limited "$@" --file "$file" --limit 1 2>&1 >/dev/null)"; then
    status=0
  else
    status=$?
  fi
  if [ "$status" -ne 1 ] || ! grep -q "^error: .*--$flag" <<<"$stderr"; then
    echo "error: 'pcmax $*' exited $status" >&2
    echo "(expected 1 with an error: line naming --$flag); stderr was:" >&2
    printf '%s\n' "$stderr" >&2
    exit 1
  fi
  echo "ok: pcmax $* -> exit 1, $(grep -m1 '^error: ' <<<"$stderr")"
}

check workers batch --workers -1
check workers batch --workers 4294967296
check lane-width batch --lane-width -1
check lanes batch --lanes -1
check queue batch --queue -1
check cache batch --cache -1
check threads solve --threads -1
check threads race --threads -1
