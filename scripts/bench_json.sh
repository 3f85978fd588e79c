#!/usr/bin/env bash
# Builds and runs the four JSON-emitting benchmarks, producing in the
# repository root:
#
#   BENCH_kernels.json  dispatched kernel throughput (scalar vs AVX2
#                       dot, row-lane matvec, popcount) and the tiled
#                       BlockTopK headline against the per-query scalar
#                       baseline.
#   BENCH_quant.json    exact brute force against the int8
#                       quantized-rerank path over a survivor-budget
#                       sweep on two norm-spread workloads.
#   BENCH_storage.json  cold rebuild vs heap and mmap snapshot warm
#                       start, and the out-of-core blocked join's
#                       block-size sweep.
#   BENCH_serve.json    the planner-vs-fixed-policy A/B on two
#                       workloads, batched vs per-query engine
#                       execution, sharded scatter-gather, straggler
#                       hedging, the QoS section, the observability
#                       overhead ratio, and the key process-registry
#                       counters accumulated over the run.
#
# Every file has one layout: {"bench", "machine": {"isa",
# "avx2_available", "hardware_threads"}, <the bench's result sections>,
# "gates": [{"name", "value", "op", "threshold", "pass", "enforced"}]}.
# A bench exits nonzero when one of its enforced gates fails. This
# script runs every bench regardless, prints each bench's gate table at
# the end, and exits nonzero if any bench failed.
#
#   $ scripts/bench_json.sh
set -uo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)
BENCHES=(kernels quant storage serve)

cmake -B build -S . -DIPS_BUILD_BENCHMARKS=ON >/dev/null || exit 1
cmake --build build -j"$JOBS" --target "${BENCHES[@]/#/bench_}" || exit 1

declare -A STATUS
for bench in "${BENCHES[@]}"; do
  echo "=== bench_$bench ==="
  STATUS[$bench]=0
  ./build/bench/"bench_$bench" | tee "build/bench_$bench.log" ||
    STATUS[$bench]=$?
  echo
done

echo "=== gates ==="
failed=0
for bench in "${BENCHES[@]}"; do
  echo "BENCH_$bench.json (bench_$bench exit ${STATUS[$bench]})"
  grep -E '^(OK|FAIL) ' "build/bench_$bench.log"
  [[ ${STATUS[$bench]} -eq 0 ]] || failed=1
done
exit "$failed"
