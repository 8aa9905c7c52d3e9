#!/usr/bin/env bash
# Checks that the hot loops of a release binary are still vectorised.
#
#   .github/scripts/check_packed.sh [BINARY]
#
# Disassembles BINARY (default target/release/dpbfl-exp) with
# `objdump -d -C` and counts, in the body of each function below, the
# packed SIMD instructions that do work: packed-float arithmetic, logic,
# compares and conversions (`mulps`, `addpd`, `cmpltpd`, `cvtps2pd`,
# `vfmadd231ps`, …) and packed-integer arithmetic, logic and compares
# (`paddd`, `pcmpgtd`, `pxor`, …); moves and shuffles do not count. It
# prints each count and fails when a function is missing (renamed, or
# inlined away) or has none: a loop that compiles to scalar code can cost
# 10 % of in-process speed without any test noticing, and whether it
# vectorises can move with how the crate is split into codegen units.
set -euo pipefail

binary=${1:-target/release/dpbfl-exp}
functions=(
  "dpbfl::first_stage::FirstStage::check_with_info"
  "dpbfl_stats::ks::KsGaussianScreen::decide"
  "dpbfl::worker::DpWorker::local_step"
  "dpbfl_tensor::matmul::matvec"
)
packed='^v?((add|sub|mul|div|min|max|sqrt|and|andn|or|xor|cmp[a-z]*|cvt[a-z0-9]*|fn?m(add|sub)[0-9]*)p[sd]|p(add|sub|mul|max|min|cmp|and|andn|or|xor|sll|srl|sra|madd|sad|avg)[a-z0-9]*)$'

asm=$(mktemp)
trap 'rm -f "$asm"' EXIT
objdump -d -C --no-show-raw-insn "$binary" > "$asm"

failed=0
for f in "${functions[@]}"; do
  # A body runs from its `<name>:` label to the next blank line; the
  # mnemonic is the second tab-separated field of each instruction line.
  body=$(awk -v label="<$f>:" '$2 == label { on = 1; next } on && NF == 0 { exit } on' "$asm")
  if [ -z "$body" ]; then
    echo "check_packed: $f not found in $binary" >&2
    failed=1
    continue
  fi
  count=$(printf '%s\n' "$body" | awk -F'\t' '{ split($2, m, " "); print m[1] }' | grep -cE "$packed" || true)
  echo "$f: $count packed ops"
  if [ "$count" -eq 0 ]; then
    echo "check_packed: $f has no packed ops (its hot loop compiled to scalar code)" >&2
    failed=1
  fi
done
exit "$failed"
