#!/usr/bin/env bash
# Huge-machine-count check: an instance whose m cannot be allocated must cost
# that instance, never the process. Under an address-space limit, `solve`
# exits 1 with `error: out of memory`, and `batch` exits 0 with every row,
# the huge one as `internal-error`: no error response may allocate Schedule(m).
#
#   tools/check_huge_instance.sh <pcmax-binary>
#
# Registered as the `cli_huge_instance` ctest, except in ASan/TSan trees:
# `ulimit -v` breaks their shadow-memory reservation.
set -euo pipefail

pcmax="$1"
file="$(mktemp)"
trap 'rm -f "$file"' EXIT
printf '3 4 1 2 3 4\n1000000000 2 1 1\n' >"$file"

run() { (ulimit -v 2000000 && "$pcmax" "$@" --file "$file") 2>&1; }
fail() { printf 'error: %s; output was:\n%s\n' "$1" "$2" >&2; exit 1; }

status=0 && out="$(run solve --solver lpt)" || status=$?
[ "$status" -eq 1 ] && grep -q '^error: out of memory' <<<"$out" ||
  fail "'pcmax solve' exited $status (expected 1, out of memory)" "$out"
echo "ok: pcmax solve --solver lpt -> exit 1, error: out of memory"

status=0 && out="$(run batch --workers 1)" || status=$?
[ "$status" -eq 0 ] && grep -Eq '^\| 0 +\| 3 +\| 4 +\| [0-9]+ ' <<<"$out" &&
  grep -Eq '^\| 1 +\| 1000000000 .*internal-error' <<<"$out" ||
  fail "'pcmax batch' exited $status (expected 0, row 1 internal-error)" "$out"
echo "ok: pcmax batch -> exit 0, both rows, the second internal-error"
