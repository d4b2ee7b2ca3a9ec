// The benchmark's three workloads and the report they fill in.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "subc/runtime/arena.hpp"
#include "trace.hpp"

namespace perfbench {

struct Config {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Explorer worker count of the parallel searches (deep_search, and the
  /// canary every explorer workload sets up with).
  int workers = 2;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics on
/// an untraced run and the per-layer metrics on a traced one; names and
/// units are checked against the table in main.cpp.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;

  /// Records one checked outcome; prints the failure when `ok` is false.
  void expect(bool ok, const std::string& what) { count(1, ok ? 0 : 1, what); }
  /// Records `attempted` outcomes of which `failed` failed.
  void count(std::int64_t attempted, std::int64_t failed,
             const std::string& what);
};

Report run_campaign(const Config& cfg);
Report run_deep_search(const Config& cfg);
Report run_service(const Config& cfg);

/// Shared by the two explorer workloads: the median time, over 11
/// repetitions, to bring the explorer to a warm state — one small search
/// per engine, one at `workers` threads, and a stateful one with the
/// default visited-set capacity. The first, cold repetition is included.
double explorer_setup_s(int workers);

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// One timed pass of an explorer workload.
struct Round {
  std::int64_t wall_ns = 0;
  std::int64_t library_ns = 0;  ///< Σ opaque library-search wall
  std::int64_t executions = 0;
  std::int64_t grants = 0;  ///< kernel grants in completed executions
};

/// Runs `round()` back to back until `seconds` have passed, at least once.
template <class F>
std::vector<Round> repeat_rounds(double seconds, F&& round) {
  std::vector<Round> rounds;
  rounds.reserve(1 << 16);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    rounds.push_back(round());
  } while (now_ns() < deadline);
  return rounds;
}

/// Runs `f` with tracing on, from zeroed tallies; returns the allocation
/// counters accumulated meanwhile.
template <class F>
subc::AllocCounters traced_window(F&& f) {
  Tracer::set(true);
  Tracer::reset();
  const subc::AllocCounters before = subc::alloc_counters();
  f();
  Tracer::set(false);
  return subc::alloc_counters_delta(before);
}

/// End-to-end metrics of an explorer workload from its untraced rounds and
/// per-verdict latencies.
void explorer_e2e_metrics(Report& rep, const std::vector<Round>& rounds,
                          std::vector<double>& latencies_us, double setup_s);

/// Per-layer metrics of a traced explorer workload: `t`, `e` and `alloc`
/// cover the `traced` rounds, `plain` are untraced rounds of the same work
/// (the overhead baseline). Counts are per round. Also checks that the
/// layers reconcile with the traced wall within 10%.
void explorer_layer_metrics(Report& rep, const std::vector<Round>& plain,
                            const std::vector<Round>& traced, const Tally& t,
                            const ExploreTally& e,
                            const subc::AllocCounters& alloc);

}  // namespace perfbench
