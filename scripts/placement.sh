#!/bin/sh
# placement.sh — where the hot loops landed, run by `make placement`.
#
# Builds ./benchmark the way benchmark/run.sh does (-buildvcs=false) into
# a temporary directory and prints, for nn.MatMul (the GEMM baseline's
# body), (*LayerPlan).runStrip and streamTaps (the SnaPEA kernel's), the
# start address and that address mod 64. A hot loop that straddles a
# 64-byte line runs measurably slower, so a speedup_vs_gemm move between
# two builds is only comparable when these agree — quote both sides.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM

GOFLAGS=-buildvcs=false $GO build -o "$dir/snapea-benchmark" ./benchmark
$GO tool nm "$dir/snapea-benchmark" >"$dir/nm"
for sym in 'snapea/internal/nn.MatMul' \
    'snapea/internal/snapea.(*LayerPlan).runStrip' \
    'snapea/internal/snapea.streamTaps'; do
    addr=$(awk -v s="$sym" '$3 == s { print $1; exit }' "$dir/nm")
    if [ -z "$addr" ]; then
        echo "placement: $sym not in the symbol table" >&2
        exit 1
    fi
    printf '%-46s 0x%s  mod 64 = %d\n' "$sym" "$addr" $((0x$addr % 64))
done
