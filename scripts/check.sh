#!/usr/bin/env bash
# Full verification pass: configure, build, run the test suite, run the
# AddressSanitizer, UndefinedBehaviorSanitizer and ThreadSanitizer
# configurations, then run every experiment binary from a Release build.
# Exits non-zero on the first failure. This is what CI would run. Every
# ctest invocation carries a per-test timeout so a hung exploration fails
# loudly instead of stalling the whole pass.
#
#   scripts/check.sh              full pass (tier-1 + sanitizers + benches)
#   scripts/check.sh --quick      tier-1 only: build + test suite, nothing else
#   scripts/check.sh --perf-smoke throughput gate only: Release bench_f4
#                                 (JSON measurement, microbenches skipped),
#                                 best of 3 runs, fail on >30% regression of
#                                 either engine's serial explorer rate
#                                 (serial_executions_per_sec for fibers,
#                                 stepped_serial_executions_per_sec for the
#                                 stepped engine) against the checked-in
#                                 scripts/perf_baseline/BENCH_F4.json; then
#                                 bench_f5 (best of 3: stateful factor no
#                                 lower, headline_stateful exec/s >= 70% of
#                                 scripts/perf_baseline/BENCH_F5.json) and
#                                 bench_f8 service rates (>= 70% of
#                                 scripts/perf_baseline/BENCH_F8.json)
#   scripts/check.sh --soak-smoke multi-instance service gate only: ~5 s of
#                                 bench_f8_soak's agreement-as-a-service
#                                 stage under AddressSanitizer with the
#                                 audit sampler at 100% — the bench
#                                 self-gates on zero violations, >=1000
#                                 concurrent live instances per shard, and
#                                 fully drained shard tables at exit
#   scripts/check.sh --service-smoke sharded-service gate only: the
#                                 ShardedService suite (routing, shard
#                                 isolation, dedup-memo races, backpressure,
#                                 drain-at-exit) under ThreadSanitizer —
#                                 the cross-thread inbox / memo / stop
#                                 protocol is exactly what TSan watches
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
PERF_SMOKE=0
SOAK_SMOKE=0
SERVICE_SMOKE=0
for arg in "$@"; do
  case "${arg}" in
    --quick) QUICK=1 ;;
    --perf-smoke) PERF_SMOKE=1 ;;
    --soak-smoke) SOAK_SMOKE=1 ;;
    --service-smoke) SERVICE_SMOKE=1 ;;
    *)
      echo "usage: scripts/check.sh [--quick|--perf-smoke|--soak-smoke|--service-smoke]" >&2
      exit 2
      ;;
  esac
done

# --- Perf smoke: a fast standalone throughput gate -----------------------
# Catches "the refactor quietly halved the explorer" before the expensive
# sanitizer stages run. 30% headroom absorbs machine noise; real regressions
# from allocation creep on the hot path are integer factors, not percents.
if [[ "${PERF_SMOKE}" == "1" ]]; then
  BASELINE="scripts/perf_baseline/BENCH_F4.json"
  if [[ ! -f "${BASELINE}" ]]; then
    echo "perf-smoke: missing baseline ${BASELINE}" >&2
    exit 2
  fi
  cmake -B build-release -G Ninja -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release --target bench_f4_micro
  mkdir -p bench-results
  extract_field() {
    # Pull a numeric field out of a flat JSON line (values may be printed
    # in scientific notation). $1 = field name, $2 = file.
    sed -n 's/.*"'"$1"'": \([-0-9.eE+]*\).*/\1/p' "$2"
  }
  # Both execution engines gate independently: the fiber rate and the
  # stepped rate are different codepaths through the kernel, and either
  # can regress without moving the other.
  BEST_FIBER=0
  BEST_STEPPED=0
  for i in 1 2 3; do
    # stdout/stderr silenced (google-benchmark notes it matched nothing);
    # a non-zero exit still aborts via set -e.
    (cd bench-results && ../build-release/bench/bench_f4_micro \
        --benchmark_filter='^$' >/dev/null 2>&1)
    FIBER_RATE="$(extract_field serial_executions_per_sec \
        bench-results/BENCH_F4.json)"
    STEPPED_RATE="$(extract_field stepped_serial_executions_per_sec \
        bench-results/BENCH_F4.json)"
    echo "perf-smoke: run ${i}: fiber ${FIBER_RATE} exec/s, stepped ${STEPPED_RATE} exec/s"
    BEST_FIBER="$(awk -v a="${BEST_FIBER}" -v b="${FIBER_RATE}" \
        'BEGIN { print (a + 0 > b + 0) ? a + 0 : b + 0 }')"
    BEST_STEPPED="$(awk -v a="${BEST_STEPPED}" -v b="${STEPPED_RATE}" \
        'BEGIN { print (a + 0 > b + 0) ? a + 0 : b + 0 }')"
  done
  FAIL=0
  for engine in fiber stepped; do
    if [[ "${engine}" == "fiber" ]]; then
      FIELD=serial_executions_per_sec BEST="${BEST_FIBER}"
    else
      FIELD=stepped_serial_executions_per_sec BEST="${BEST_STEPPED}"
    fi
    BASE_RATE="$(extract_field "${FIELD}" "${BASELINE}")"
    echo "perf-smoke: ${engine}: best ${BEST} exec/s vs baseline ${BASE_RATE} exec/s"
    if ! awk -v c="${BEST}" -v b="${BASE_RATE}" \
        'BEGIN { exit (c + 0 >= 0.7 * (b + 0)) ? 0 : 1 }'; then
      echo "perf-smoke: FAIL — ${engine} serial explorer throughput regressed >30%" >&2
      FAIL=1
    fi
  done
  [[ "${FAIL}" == "0" ]] || exit 1

  # Stateful-exploration headline (BENCH_F5): the bench self-gates its
  # >=5x execution-count win on the convergent mixed cell and exits
  # non-zero on failure; on top of that, the deterministic
  # best-mixed-cell factor must not drop below the checked-in baseline's,
  # and the headline stateful search's wall-clock rate (best of 3 runs,
  # which also pays the per-search visited-set set-up) must stay >= 70% of
  # the baseline's: fewer executions only count if the search got faster.
  F5_BASELINE="scripts/perf_baseline/BENCH_F5.json"
  if [[ ! -f "${F5_BASELINE}" ]]; then
    echo "perf-smoke: missing baseline ${F5_BASELINE}" >&2
    exit 2
  fi
  stateful_rate() {
    # headline_stateful is a flat object; take its executions_per_sec.
    sed -n 's/.*"headline_stateful": {[^}]*"executions_per_sec": \([-0-9.eE+]*\).*/\1/p' "$1"
  }
  cmake --build build-release --target bench_f5_statespace
  BEST_STATEFUL=0
  for i in 1 2 3; do
    (cd bench-results && ../build-release/bench/bench_f5_statespace >/dev/null)
    F5_FACTOR="$(extract_field best_mixed_factor bench-results/BENCH_F5.json)"
    F5_BASE="$(extract_field best_mixed_factor "${F5_BASELINE}")"
    echo "perf-smoke: run ${i}: stateful best mixed-cell factor ${F5_FACTOR}x vs baseline ${F5_BASE}x"
    if ! awk -v c="${F5_FACTOR}" -v b="${F5_BASE}" \
        'BEGIN { exit (c + 0 >= b + 0) ? 0 : 1 }'; then
      echo "perf-smoke: FAIL — stateful exploration factor regressed below baseline" >&2
      exit 1
    fi
    RATE="$(stateful_rate bench-results/BENCH_F5.json)"
    echo "perf-smoke: run ${i}: stateful headline ${RATE} exec/s"
    BEST_STATEFUL="$(awk -v a="${BEST_STATEFUL}" -v b="${RATE}" \
        'BEGIN { print (a + 0 > b + 0) ? a + 0 : b + 0 }')"
  done
  BASE_RATE="$(stateful_rate "${F5_BASELINE}")"
  echo "perf-smoke: stateful headline: best ${BEST_STATEFUL} exec/s vs baseline ${BASE_RATE} exec/s"
  if ! awk -v c="${BEST_STATEFUL}" -v b="${BASE_RATE}" \
      'BEGIN { exit (c + 0 >= 0.7 * (b + 0)) ? 0 : 1 }'; then
    echo "perf-smoke: FAIL — stateful headline wall-clock rate regressed >30%" >&2
    exit 1
  fi

  # Sharded-service headline (BENCH_F8): aggregate service ops/s at 1 shard
  # and at 4 shards, best of 2 short runs, each >= 70% of the checked-in
  # baseline. Absolute per-configuration throughput is the portable signal —
  # wall-clock scaling across shards is gated inside the bench itself, and
  # only on hosts with >= 8 usable cores (the bench stamps the measured
  # ratio everywhere). Short runs land in a scratch dir so the checked-in
  # bench-results/BENCH_F8.json stays a full-length artifact.
  F8_BASELINE="scripts/perf_baseline/BENCH_F8.json"
  if [[ ! -f "${F8_BASELINE}" ]]; then
    echo "perf-smoke: missing baseline ${F8_BASELINE}" >&2
    exit 2
  fi
  cmake --build build-release --target bench_f8_soak
  ROOT="$(pwd)"
  F8_SCRATCH="$(mktemp -d)"
  trap 'rm -rf "${F8_SCRATCH}"' EXIT
  BEST_1SHARD=0
  BEST_4SHARD=0
  for i in 1 2; do
    (cd "${F8_SCRATCH}" && "${ROOT}/build-release/bench/bench_f8_soak" \
        0 2 10 >/dev/null)
    RATE_1="$(extract_field soak_ops_per_sec_1shard "${F8_SCRATCH}/BENCH_F8.json")"
    RATE_4="$(extract_field soak_ops_per_sec_4shard "${F8_SCRATCH}/BENCH_F8.json")"
    echo "perf-smoke: run ${i}: service 1-shard ${RATE_1} ops/s, 4-shard ${RATE_4} ops/s"
    BEST_1SHARD="$(awk -v a="${BEST_1SHARD}" -v b="${RATE_1}" \
        'BEGIN { print (a + 0 > b + 0) ? a + 0 : b + 0 }')"
    BEST_4SHARD="$(awk -v a="${BEST_4SHARD}" -v b="${RATE_4}" \
        'BEGIN { print (a + 0 > b + 0) ? a + 0 : b + 0 }')"
  done
  for cell in 1shard 4shard; do
    if [[ "${cell}" == "1shard" ]]; then
      FIELD=soak_ops_per_sec_1shard BEST="${BEST_1SHARD}"
    else
      FIELD=soak_ops_per_sec_4shard BEST="${BEST_4SHARD}"
    fi
    BASE_RATE="$(extract_field "${FIELD}" "${F8_BASELINE}")"
    echo "perf-smoke: service ${cell}: best ${BEST} ops/s vs baseline ${BASE_RATE} ops/s"
    if ! awk -v c="${BEST}" -v b="${BASE_RATE}" \
        'BEGIN { exit (c + 0 >= 0.7 * (b + 0)) ? 0 : 1 }'; then
      echo "perf-smoke: FAIL — sharded service ${cell} throughput regressed >30%" >&2
      FAIL=1
    fi
  done
  [[ "${FAIL}" == "0" ]] || exit 1
  echo "PERF SMOKE PASSED"
  exit 0
fi

# --- Soak smoke: the multi-instance service gate -------------------------
# ~5 s of agreement-as-a-service traffic (thousands of concurrent 1sWRN /
# GAC / set-consensus instances over one InstanceTable) under ASan, with
# every decided instance audited (audit-percent 100). The bench self-gates:
# zero audit violations, the >=1000 concurrent-live-instance high-water
# mark, and zero live instances left in the table at exit (block recycling,
# not monotone arena growth). The legacy randomized-schedule stage is
# skipped (0 s) — this gate is about the instance layer, and the full pass
# still soaks the legacy workloads from the Release bench stage. Results
# land in a scratch directory so checked-in bench-results/ stay untouched.
if [[ "${SOAK_SMOKE}" == "1" ]]; then
  cmake -B build-asan -G Ninja \
    -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer -g -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
  cmake --build build-asan --target bench_f8_soak
  ROOT="$(pwd)"
  SCRATCH="$(mktemp -d)"
  trap 'rm -rf "${SCRATCH}"' EXIT
  (cd "${SCRATCH}" && "${ROOT}/build-asan/bench/bench_f8_soak" 0 5 100)
  echo "SOAK SMOKE PASSED"
  exit 0
fi

# --- Service smoke: the sharded-service concurrency gate ------------------
# The ShardedService suite under ThreadSanitizer: per-shard MPSC inboxes
# over the Vyukov ring, the park/notify producer-consumer protocol, the
# CAS-claimed DecisionMemo (exactly-one-winner, publish-before-lookup), and
# the stop()/drain/join teardown are all cross-thread edges — exactly what
# TSan instruments. The same suite runs un-sanitized in tier-1; this stage
# is the data-race gate.
if [[ "${SERVICE_SMOKE}" == "1" ]]; then
  cmake -B build-tsan -G Ninja \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -g -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan --target sharded_service_test
  build-tsan/tests/sharded_service_test
  echo "SERVICE SMOKE PASSED"
  exit 0
fi

# Per-test wall-clock budget (seconds). Generous: the slowest tier-1 test
# finishes in well under a minute on a laptop. (Each discovered test also
# carries its own 120 s ctest TIMEOUT from tests/CMakeLists.txt.)
CTEST_TIMEOUT=300

# --- Default (Debug-ish) build + full test suite -------------------------
cmake -B build -G Ninja
cmake --build build

ctest --test-dir build --output-on-failure --timeout "${CTEST_TIMEOUT}"

if [[ "${QUICK}" == "1" ]]; then
  echo "QUICK CHECKS PASSED (tier-1 only; sanitizers and benches skipped)"
  exit 0
fi

# --- AddressSanitizer: the whole suite. The fiber layer hand-switches ----
# stacks with swapcontext, which ASan can only follow through the
# __sanitizer_*_switch_fiber annotations in src/runtime/fiber.cpp — this
# stage is what keeps those annotations honest, and catches stack misuse /
# lifetime bugs everywhere else.
cmake -B build-asan -G Ninja \
  -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer -g -O1" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
cmake --build build-asan

ctest --test-dir build-asan --output-on-failure --timeout "${CTEST_TIMEOUT}"

# --- UndefinedBehaviorSanitizer: the whole suite. The footprint/sleep-set -
# layer leans on bit shifts over 64-bit masks and on mixed-radix counter
# arithmetic; UBSan guards the shift widths and signed overflow.
cmake -B build-ubsan -G Ninja \
  -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -g -O1" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=undefined"
cmake --build build-ubsan

ctest --test-dir build-ubsan --output-on-failure --timeout "${CTEST_TIMEOUT}"

# --- ThreadSanitizer: guard the parallel explorer's work queue and -------
# cancellation paths (and the fiber layer's TSan integration), and the
# atomic_ref slots over raw mapped pages: the visited set's exactly-one-
# winner insert race (hashing_test), parallel stateful searches sharing
# one table (stateful_exploration_test), and the decision memo's claim/
# publish pair (sharded_service_test).
cmake -B build-tsan -G Ninja \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -g -O1" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan --target fiber_test explorer_test \
  parallel_explorer_test reduction_test sharded_service_test hashing_test \
  stateful_exploration_test
for t in fiber_test explorer_test parallel_explorer_test reduction_test \
    sharded_service_test hashing_test stateful_exploration_test; do
  echo "== tsan: ${t}"
  "build-tsan/tests/${t}"
done

# --- Benches: Release build, JSON artifacts land in bench-results/ -------
cmake -B build-release -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build build-release

mkdir -p bench-results
cd bench-results
for bench in ../build-release/bench/bench_*; do
  echo "== ${bench}"
  "${bench}"
done
cd ..
echo "ALL CHECKS PASSED"
