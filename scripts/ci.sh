#!/usr/bin/env bash
# CI pipeline (ROADMAP.md):
#   1. tier-1 gate — configure (-DDSLAYER_WERROR=ON), build, run the fast
#      unit/integration tests (everything not labeled tier2);
#   2. end-to-end smoke — `perfbench/run.py --smoke` builds the real
#      `dslshell --listen` server and drives it over TCP with every verb,
#      checking each body against an in-process oracle and the server's
#      request/response counters against the client's;
#   3. tier-2 — fuzz / stress / service concurrency + chaos tests in the
#      same tree;
#   4. sanitizer pass — tier-1 under ASan+UBSan in a second build dir
#      (-DDSLAYER_WERROR=ON; benches/examples off: the 10k-core bench is
#      not meaningful instrumented), plus the failpoint chaos suite — injected faults
#      exercise the rare unwind paths where leaks and UB hide;
#   5. crash-recovery chaos — the kill-anywhere storage suite (fork a
#      child, abort it at a random WAL/snapshot write boundary, reboot,
#      demand byte-identical recovery) runs in the SAME ASan build, so a
#      recovery path that reads freed or uninitialized memory fails here
#      rather than corrupting a catalog in production;
#   6. ThreadSanitizer — the concurrency stress AND chaos tests (tier2) in
#      a TSan build, gating the exploration service's locking model, plus
#      the sweep-memo tests whose reader threads fold one shared filter
#      plan concurrently, and the lazy-boot tests whose reader threads
#      fill snapshot-restored core slots concurrently;
#   7. benchmark telemetry — the candidate-filter, Fig. 12, service
#      throughput, network throughput, and storage cold-start benches emit
#      machine-readable BENCH_*.json at the repo root for trend tracking,
#      check_bench_counters.py gates their deterministic work counters
#      against bench/baselines/, and check_metrics_format.py validates the
#      `!metrics` scrape the net bench captures from its loaded server.
#
# Every ctest run carries --timeout: the chaos/stress suites inject delays
# and faults into lock-holding code, so "a test deadlocked" must surface
# as a bounded per-test failure, never a hung pipeline.
set -euo pipefail
cd "$(dirname "$0")/.."

CTEST_TIMEOUT=300  # seconds per test — chaos suites finish in single digits

echo "=== [1/7] tier-1: build + tests ==="
# The tier-1 and sanitizer builds treat every warning as an error, so a
# new warning fails CI instead of piling up.
cmake -B build -S . -DDSLAYER_WERROR=ON
cmake --build build -j
(cd build && ctest -LE tier2 --output-on-failure --timeout "$CTEST_TIMEOUT")

echo "=== [2/7] end-to-end smoke: real TCP server, every verb, oracle-checked ==="
python3 perfbench/run.py --smoke

echo "=== [3/7] tier-2: fuzz + stress + chaos service tests ==="
(cd build && ctest -L tier2 --output-on-failure --timeout "$CTEST_TIMEOUT")

echo "=== [4/7] sanitizers: ASan+UBSan build + tier-1 + chaos ==="
SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DDSLAYER_BUILD_BENCH=OFF \
  -DDSLAYER_BUILD_EXAMPLES=OFF \
  -DDSLAYER_WERROR=ON \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS"
cmake --build build-asan -j
(cd build-asan && ctest -LE tier2 --output-on-failure --timeout "$CTEST_TIMEOUT")
(cd build-asan && ctest -R 'ServiceChaos|NetChaos|Failpoint' --output-on-failure --timeout "$CTEST_TIMEOUT")
# Columnar oracle suite with the word kernels pinned: once all-scalar, once
# on the widest ISA the host supports (DSLAYER_SIMD overrides the runtime
# dispatch; see src/support/simd.hpp). Any lane/tail/NaN divergence from
# the reference scan in the test file trips the oracles under ASan+UBSan.
DSLAYER_SIMD=scalar ./build-asan/tests/dsl_columnar_oracle_test
DSLAYER_SIMD=widest ./build-asan/tests/dsl_columnar_oracle_test

echo "=== [5/7] crash-recovery chaos: kill-anywhere storage suite under ASan ==="
# 500+ randomized fork/abort/reboot iterations across every WAL and
# snapshot write/fsync/rename failpoint site, plus the durability fuzz
# oracles (export/import/WAL-replay/snapshot agreement, tail damage).
(cd build-asan && ctest -R 'StorageChaos|StorageFuzz' --output-on-failure --timeout "$CTEST_TIMEOUT")

echo "=== [6/7] ThreadSanitizer: service concurrency stress + chaos ==="
TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DDSLAYER_BUILD_BENCH=OFF \
  -DDSLAYER_BUILD_EXAMPLES=OFF \
  -DCMAKE_CXX_FLAGS="$TSAN_FLAGS"
cmake --build build-tsan -j --target service_stress_test service_chaos_test net_chaos_test \
  exploration_fuzz_test storage_fuzz_test storage_chaos_test dsl_query_cache_test \
  storage_lazy_boot_test
(cd build-tsan && ctest -L tier2 --output-on-failure --timeout "$CTEST_TIMEOUT")
# What-if aggregates: sessions on reader threads share one primed plan and
# fold its metric columns through their own survivor masks.
./build-tsan/tests/dsl_query_cache_test
# Lazy snapshot boot: reader threads under the SharedLayer read lock fill
# restored core slots on first read, each exactly once.
./build-tsan/tests/storage_lazy_boot_test

echo "=== [7/7] benchmark telemetry (BENCH_*.json) + counter guard ==="
# Each bench's exit status is recorded rather than ending the script, so a
# bench that fails (candidate_filter's wall-time gate can trip on a loaded
# host) still leaves both checkers' verdicts in the log. Any failure below
# still fails CI, and every failing bench is named.
failed=()
run_bench() {
  local name=$1
  shift
  "./build/bench/$name" "$@" || failed+=("bench $name")
}
run_bench candidate_filter --json BENCH_candidate_filter.json
run_bench fig12_montgomery_tradeoffs --json BENCH_fig12_montgomery_tradeoffs.json
run_bench service_throughput --json BENCH_service_throughput.json
run_bench net_throughput --json BENCH_net_throughput.json \
  --dump-metrics BENCH_metrics_scrape.txt
run_bench storage_coldstart --json BENCH_storage_coldstart.json
# The net bench also scrapes the loaded server's `!metrics` payload;
# validate it against the Prometheus text-format rules.
python3 scripts/check_metrics_format.py BENCH_metrics_scrape.txt ||
  failed+=("check_metrics_format.py")
# Wall-time-free regression gate: the deterministic work counters in the
# bench JSON must match the committed baselines exactly.
python3 scripts/check_bench_counters.py || failed+=("check_bench_counters.py")
if ((${#failed[@]} > 0)); then
  printf 'CI FAILED in stage 7: %s\n' "${failed[@]}" >&2
  exit 1
fi
echo "CI OK"
