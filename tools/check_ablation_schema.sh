#!/usr/bin/env bash
# Golden-prefix check of the pcmax.ablation.v3 JSON document.
#
# Runs the ablation bench at smoke size and asserts (a) the document header
# (schema tag + params block) is byte-identical to the tracked golden prefix
# — JsonValue objects are insertion-ordered and dump() is deterministic, so
# any drift here is a schema change that needs a version bump — and (b) the
# structural fields added in v2 (host_best_kernel, per-variant kernel
# fields, the simd_kernels sections and their aggregate) are present. The golden prefix
# deliberately stops before host_best_kernel: that value is host-dependent.
#
#   tools/check_ablation_schema.sh <ablation-binary> <golden-prefix-file>
set -euo pipefail

bench="$1"
golden="$2"

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

"$bench" --m 4 --n 16 --trials 1 --json "$out" >/dev/null

lines="$(wc -l < "$golden")"
if ! diff -u "$golden" <(head -n "$lines" "$out"); then
  echo "error: ablation JSON header drifted from $golden" >&2
  echo "(schema changes need a version bump and a regenerated golden)" >&2
  exit 1
fi

for needle in '"host_best_kernel":' '"simd_kernels":' \
    '"simd_comparison_aggregate":' '"kernel":' '"simd_blocks_mean":' \
    '"dp_seconds_mean":' \
    '"swar_seconds_total":' '"avx2_seconds_total":'; do
  if ! grep -q "$needle" "$out"; then
    echo "error: ablation JSON is missing $needle" >&2
    exit 1
  fi
done

echo "ablation schema OK"
