#!/usr/bin/env bash
# Print the non-default core-geometry regression matrix: the gem5-style
# statistics of every prefetch scheme on four workloads at three ROB
# sizes x two L1D MSHR counts. The output is pinned byte-for-byte by
# tests/golden/core_geometry.txt (the default 128-entry ROB is already
# covered by the figure goldens).
#
#   scripts/core_geometry.sh [build-dir] > /tmp/core_geometry.txt
#   diff tests/golden/core_geometry.txt /tmp/core_geometry.txt
set -euo pipefail

build=${1:-build}
sim="$build/tools/cbws-sim"

for workload in 429.mcf-ref mxm-linpack hash-join stencil-default; do
    for rob in 32 200 256; do
        for mshrs in 1 8; do
            echo "== $workload --rob $rob --l1d-mshrs $mshrs"
            "$sim" --workload "$workload" --stats --prefetcher all \
                --insts 20000 --rob "$rob" --l1d-mshrs "$mshrs"
        done
    done
done
