#!/usr/bin/env bash
# Header self-containment check: every public header under src/ must compile
# as the FIRST include of a translation unit. Umbrella regressions (a header
# silently leaning on whatever its includers happened to include before it)
# are invisible to the normal build — the .cpp files include headers in
# lucky orders — so this sweep compiles a one-line TU per header:
#
#     #include "<header>"
#     int main() { return 0; }
#
# with only -I src on the include path. Registered as the `check_headers`
# ctest (label `headers`, see tools/CMakeLists.txt) and run by
# tools/check.sh.
#
# The per-header compiles run in parallel (one job per CPU); reports are
# printed in header order once all jobs have finished.
#
# Usage: tools/check_headers.sh [compiler]   (default: $CXX, else c++)
set -euo pipefail

cd "$(dirname "$0")/.."
compiler="${1:-${CXX:-c++}}"
jobs="$(nproc 2>/dev/null || echo 4)"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# Compiles one header in its own TU under $tmpdir/<n>/; leaves the compiler
# diagnostics in errors.txt and, on failure, a `failed` marker.
check_one() {
  local compiler="$1" tmpdir="$2" n="$3" header="$4"
  local dir="$tmpdir/$n"
  mkdir -p "$dir"
  printf '#include "%s"\nint main() { return 0; }\n' "$header" > "$dir/tu.cpp"
  if ! "$compiler" -std=c++20 -fsyntax-only -I src \
      "$dir/tu.cpp" 2> "$dir/errors.txt"; then
    : > "$dir/failed"
  fi
}
export -f check_one

mapfile -t headers < <(cd src && find . -name '*.hpp' | sed 's|^\./||' | sort)
checked=${#headers[@]}
if [ "$checked" -eq 0 ]; then
  echo "check_headers.sh: found no headers under src/ — wrong directory?" >&2
  exit 2
fi

for i in "${!headers[@]}"; do
  printf '%s\0%s\0' "$i" "${headers[$i]}"
done | xargs -0 -n 2 -P "$jobs" bash -c 'check_one "$0" "$1" "$2" "$3"' \
    "$compiler" "$tmpdir"

failed=0
for i in "${!headers[@]}"; do
  if [ -e "$tmpdir/$i/failed" ]; then
    echo "NOT SELF-CONTAINED: src/${headers[$i]}"
    sed 's/^/    /' "$tmpdir/$i/errors.txt"
    failed=$((failed + 1))
  fi
done

if [ "$failed" -ne 0 ]; then
  echo "check_headers.sh: $failed of $checked headers are not self-contained"
  exit 1
fi
echo "check_headers.sh: all $checked headers are self-contained"
