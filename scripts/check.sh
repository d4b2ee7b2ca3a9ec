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
#   scripts/check.sh --perf-smoke perf gate only: scripts/perf_ab.py, a
#                                 same-host A/B of the perfbench workloads
#                                 (merge-base with main vs the working
#                                 tree, 10 alternating pairs each) that fails
#                                 when an end-to-end median worsens past its
#                                 BENCHMARK.json bound or more operations
#                                 fail than at the merge-base
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

# --- Perf smoke: the same-host benchmark A/B ----------------------------
# Both sides are built and run on this host in alternating pairs, so the
# gate follows the code rather than the host's load or another machine's
# recorded numbers.
if [[ "${PERF_SMOKE}" == "1" ]]; then
  python3 scripts/perf_ab.py
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
