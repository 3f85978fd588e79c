#!/usr/bin/env bash
# Full robustness gate: build and run the test suite (1) plain,
# (2) under ASan+UBSan, (3) under UBSan alone (with examples on, so the
# serve path runs sanitized end to end), and (4) under TSan for the
# concurrency-heavy targets (util_test exercises the exception-safe
# ThreadPool/ParallelFor, obs_test the sharded metrics registry,
# chaos_test the failpoint and cancellation machinery, storage_test an
# engine snapshot saved while another thread serves and builds). The
# plain pass also smoke-tests the metrics export pipeline:
# serve_quickstart writes the registry as JSON and
# tools/metrics_json_check validates its structure.
#
# The `static` mode is the compile-time leg (DESIGN.md §9): the project
# linter/analyzer (tools/ipslint — table rules plus the layering,
# lock-order, and failpoint-coverage passes), the [[nodiscard]]
# contract via the plain -Werror build, and — when clang++/clang-tidy
# are installed — clang's -Wthread-safety race analysis and the curated
# .clang-tidy set. It ends with a per-leg summary table; the clang legs
# print a SKIPPED notice when the tools are absent so the mode degrades
# gracefully on gcc-only machines (CI installs clang and runs all
# four legs).
#
#   $ scripts/check.sh            # everything
#   $ scripts/check.sh plain      # just the plain build + tests
#   $ scripts/check.sh asan|tsan  # a single sanitizer pass
#   $ scripts/check.sh ubsan      # UBSan alone (catches UB that ASan's
#                                 # combined leg can mask, and runs the
#                                 # benches/examples that leg skips)
#   $ scripts/check.sh scalar     # full suite with IPS_FORCE_SCALAR=1
#   $ scripts/check.sh release    # -O3 Release build + full suite
#   $ scripts/check.sh storage    # snapshot suite under ASan + warm-start gate
#   $ scripts/check.sh quant      # int8 parity suite (both dispatches) + bench gate
#   $ scripts/check.sh serve      # serving bench gates (planner, QoS, hedging)
#   $ scripts/check.sh static     # ipslint passes + nodiscard + clang analyses
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)
MODE="${1:-all}"

run_plain() {
  echo "=== plain build + full test suite ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS"
  (cd build && ctest --output-on-failure -j"$JOBS")
  echo "=== serve quickstart (1k concurrent deadlined requests) + metrics smoke ==="
  IPS_METRICS_JSON=build/metrics_smoke.json ./build/examples/serve_quickstart
  ./build/tools/metrics_json_check build/metrics_smoke.json
}

run_asan() {
  echo "=== ASan+UBSan build + full test suite ==="
  cmake -B build-asan -S . -DIPS_SANITIZE="address;undefined" \
    -DIPS_BUILD_BENCHMARKS=OFF -DIPS_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-asan -j"$JOBS"
  (cd build-asan && ctest --output-on-failure -j"$JOBS")
}

run_ubsan() {
  # UBSan on its own: -fno-sanitize-recover=all turns any UB (signed
  # overflow, misaligned load, bad shift, out-of-range double->int) into
  # a hard failure. Unlike the ASan leg this one keeps benchmarks and
  # examples ON, so the kernel dispatch and serve paths run under UBSan
  # at full width too.
  echo "=== UBSan build + full test suite ==="
  cmake -B build-ubsan -S . -DIPS_SANITIZE=undefined \
    -DIPS_BUILD_BENCHMARKS=OFF -DIPS_BUILD_EXAMPLES=ON >/dev/null
  cmake --build build-ubsan -j"$JOBS"
  (cd build-ubsan && ctest --output-on-failure -j"$JOBS")
  echo "=== UBSan serve quickstart ==="
  ./build-ubsan/examples/serve_quickstart
}

run_tsan() {
  echo "=== TSan build + concurrency tests ==="
  cmake -B build-tsan -S . -DIPS_SANITIZE=thread \
    -DIPS_BUILD_BENCHMARKS=OFF -DIPS_BUILD_EXAMPLES=ON >/dev/null
  cmake --build build-tsan -j"$JOBS" \
    --target util_test obs_test core_test chaos_test serve_test sharded_test \
    storage_test serve_quickstart
  (cd build-tsan && ctest --output-on-failure -R 'util_test|obs_test|core_test|chaos_test|serve_test|sharded_test|storage_test')
  echo "=== TSan serve quickstart ==="
  ./build-tsan/examples/serve_quickstart
}

run_scalar() {
  echo "=== scalar-dispatch leg: full test suite with IPS_FORCE_SCALAR=1 ==="
  # Pins the portable kernel table (src/linalg/kernels.h) so the whole
  # suite — kernel parity, BatchQuery equivalence, every index — runs
  # the non-SIMD code path CI would otherwise never exercise on AVX2
  # runners.
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS"
  (cd build && IPS_FORCE_SCALAR=1 ctest --output-on-failure -j"$JOBS")
}

run_release() {
  # The default build type is RelWithDebInfo (-O2). -O3 inlines deeper,
  # and GCC's flow-sensitive warnings (-Wstringop-overflow and friends)
  # fire on code -O2 never inlines that far. Under -Werror a Release
  # build is the only place such a warning shows.
  echo "=== release leg: -O3 Release build + full test suite ==="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-release -j"$JOBS"
  (cd build-release && ctest --output-on-failure -j"$JOBS")
}

run_storage() {
  # The persistence leg (DESIGN.md §12): the snapshot round-trip /
  # corruption / failpoint suite under ASan+UBSan (where a stray read
  # past a mapped section or a leak in the mmap keepalive chain would
  # actually fail), then the plain-build storage bench — which authors
  # a real snapshot, gates the mmap warm start at 10x over a cold
  # rebuild, and streams the out-of-core blocked join sweep — with
  # `ipssnap --verify` CRC-checking the artifacts the bench wrote.
  echo "=== storage: ASan round-trip + corruption + failpoint suite ==="
  cmake -B build-asan -S . -DIPS_SANITIZE="address;undefined" \
    -DIPS_BUILD_BENCHMARKS=OFF -DIPS_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-asan -j"$JOBS" --target storage_test chaos_test
  (cd build-asan && ctest --output-on-failure -R 'storage_test|chaos_test')
  echo "=== storage: warm-start gate + out-of-core sweep (bench_storage) ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS" --target bench_storage ipssnap persistence_quickstart
  ./build/bench/bench_storage
  echo "=== storage: ipssnap --verify over the bench artifacts ==="
  ./build/tools/ipssnap --verify build/bench_storage_snapshot/snapshot.ips
  ./build/tools/ipssnap --verify build/bench_storage_data.ips
  echo "=== storage: persistence quickstart (save -> warm start -> blocked join) ==="
  ./build/examples/persistence_quickstart
}

run_quant() {
  # The quantized-scoring leg (DESIGN.md §13): the int8 kernel parity /
  # error-bound / precision-matrix suite on both kernel dispatches
  # (quant_test runs the active ISA, quant_test_scalar pins the portable
  # table — the AVX2 maddubs path and the scalar path must agree
  # bitwise), then the bench gate: bench_quant exits nonzero unless the
  # quantized-rerank path reaches 2x exact throughput at 0.95 recall on
  # the large-norm-spread workload.
  echo "=== quant: int8 parity + precision-matrix suite (dispatched + scalar) ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS" --target quant_test bench_quant
  (cd build && ctest --output-on-failure -R 'quant_test')
  echo "=== quant: two-stage scoring bench gate (2x at 0.95 recall) ==="
  (cd build && ./bench/bench_quant)
}

run_serve() {
  # The serving-layer leg (DESIGN.md §14): bench_serve is a gate, not a
  # report — it exits nonzero unless (1) the planner beats the best
  # fixed algorithm on a calibration workload, (2) batched execution
  # clears 2x over sequential at equal recall, (3) sharded
  # scatter-gather passes its overhead gate, (4) hedging cuts the
  # straggler p99, (5) the planner with its feedback loop beats every fixed
  # (algo, precision) policy across a mid-run workload shift,
  # (6) a victim tenant's p99 holds its bound under 10x overload from
  # an aggressor tenant (QoS admission + token buckets + lanes), and
  # (7) the instrumented query path stays within 3% of the plain scan.
  # Every gate is evaluated and listed in the gates[] table of the JSON
  # snapshot it writes, the checked-in BENCH_serve.json.
  echo "=== serve: planner/QoS/hedging bench gates (bench_serve) ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS" --target bench_serve
  # Run from the repo root so the JSON snapshot refreshes the
  # checked-in BENCH_serve.json in place.
  ./build/bench/bench_serve
}

run_static() {
  # Each leg records a row for the summary table printed at the end.
  STATIC_SUMMARY=""
  static_row() { STATIC_SUMMARY+=$(printf '%-22s %s' "$1" "$2")$'\n'; }

  echo "=== static analysis: ipslint (rules + layering + lock-order + failpoint-coverage) ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS" --target ipslint
  # ipslint prints its own per-pass table; it exits nonzero on findings.
  ./build/tools/ipslint
  static_row "ipslint (4 passes)" "clean"

  echo "=== static analysis: [[nodiscard]] contract (-Werror build) ==="
  # Status/StatusOr and every factory/query entry point are [[nodiscard]];
  # the tree-wide -Wall -Wextra -Werror build is the enforcement.
  cmake --build build -j"$JOBS"
  static_row "nodiscard (-Werror)" "clean"

  if command -v clang++ >/dev/null 2>&1; then
    echo "=== static analysis: clang -Wthread-safety ==="
    # Compile-time race detection from the IPS_GUARDED_BY/IPS_REQUIRES
    # annotations (src/util/thread_annotations.h). Deleting a lock
    # acquisition or an annotation fails this build.
    cmake -B build-static -S . \
      -DCMAKE_CXX_COMPILER=clang++ \
      -DIPS_BUILD_BENCHMARKS=OFF >/dev/null
    cmake --build build-static -j"$JOBS"
    static_row "clang -Wthread-safety" "clean"
  else
    echo "=== static analysis: clang -Wthread-safety SKIPPED (no clang++ on PATH) ==="
    static_row "clang -Wthread-safety" "SKIPPED (no clang++)"
  fi

  if command -v clang-tidy >/dev/null 2>&1 && command -v clang++ >/dev/null 2>&1; then
    echo "=== static analysis: clang-tidy (.clang-tidy) ==="
    cmake -B build-tidy -S . \
      -DCMAKE_CXX_COMPILER=clang++ \
      -DIPS_CLANG_TIDY=ON \
      -DIPS_BUILD_BENCHMARKS=OFF >/dev/null
    cmake --build build-tidy -j"$JOBS"
    static_row "clang-tidy" "clean"
  else
    echo "=== static analysis: clang-tidy SKIPPED (clang-tidy or clang++ not on PATH) ==="
    static_row "clang-tidy" "SKIPPED (no clang-tidy)"
  fi

  echo "=== static analysis summary ==="
  printf '%-22s %s\n' "leg" "status"
  printf '%-22s %s\n' "---" "------"
  printf '%s' "$STATIC_SUMMARY"
}

case "$MODE" in
  plain)  run_plain ;;
  asan)   run_asan ;;
  tsan)   run_tsan ;;
  ubsan)  run_ubsan ;;
  scalar) run_scalar ;;
  release) run_release ;;
  storage) run_storage ;;
  quant)  run_quant ;;
  serve)  run_serve ;;
  static) run_static ;;
  all)    run_plain; run_scalar; run_release; run_asan; run_tsan; run_ubsan; run_storage; run_quant; run_serve; run_static ;;
  *) echo "usage: $0 [plain|asan|tsan|ubsan|scalar|release|storage|quant|serve|static|all]" >&2; exit 2 ;;
esac

echo "all checks passed"
