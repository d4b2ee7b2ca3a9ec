// The repository benchmark.
//
//   perfbench --workload campaign|deep_search|service --seed N --seconds S
//             --trace 0|1 [--commit ID] [--source-digest HEX]
//
// Prints progress and failures, then one provenance line, then as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics when --trace 0, the per-layer metrics (from a traced
// run, beside an untraced one for the overhead) when --trace 1. Exits 1
// when any output check failed. perfbench/run.py builds and runs this.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "subc/runtime/service.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Metric {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks the two agree).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},         {"verdict_s", "s"},
    {"exec_per_s", "1/s"},    {"ops_per_s", "1/s"},
    {"decide_p50_us", "us"},  {"decide_p99_us", "us"},
    {"ok_frac", "frac"},      {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"explorer.first_exec_us", "us"},
    {"explorer.tail_us", "us"},
    {"explorer.self_ns_per_exec", "ns"},
    {"explorer.worker_util", "frac"},
    {"explorer.useful_frac", "frac"},
    {"explorer.calls", "count"},
    {"explorer.executions", "count"},
    {"explorer.reduced_subtrees", "count"},
    {"explorer.stateful_cuts", "count"},
    {"runtime.build_ns_per_exec", "ns"},
    {"runtime.run_ns_per_exec", "ns"},
    {"runtime.teardown_ns_per_exec", "ns"},
    {"runtime.fiber_ns_per_step", "ns"},
    {"runtime.stepped_ns_per_step", "ns"},
    {"runtime.steps_per_exec", "count"},
    {"scheduler.decide_ns", "ns"},
    {"scheduler.decisions_per_exec", "count"},
    {"hashing.probe_ns", "ns"},
    {"hashing.cut_frac", "frac"},
    {"checking.check_ns", "ns"},
    {"checking.checks", "count"},
    {"library.search_frac", "frac"},
    {"arena.chunks", "count"},
    {"arena.bytes", "bytes"},
    {"service.ctor_ms", "ms"},
    {"service.open_ns", "ns"},
    {"service.submit_ns", "ns"},
    {"service.stop_ms", "ms"},
    {"service.msgs_per_tick", "count"},
    {"service.dedup_hit_frac", "frac"},
    {"service.shard_skew", "ratio"},
    {"service.tick_us", "us"},
    {"service.callback_ns", "ns"},
    {"service.inbox_peak", "count"},
    {"service.timed_out", "count"},
    {"service.orphan_ops", "count"},
    {"service.skipped_ops", "count"},
    {"instance.block_reuse_frac", "frac"},
    {"instance.peak_live", "count"},
    {"producer.late_p99_us", "us"},
    {"producer.late_max_us", "us"},
    {"trace.overhead_frac", "frac"},
    {"trace.unaccounted_frac", "frac"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "campaign|deep_search|service --seed N --seconds S --trace 0|1 "
               "[--commit ID] [--source-digest HEX]\n",
               why);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string commit = "unknown";
  std::string digest = "unknown";
  Config cfg;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(val, &end);
    } else if (key == "--trace") {
      trace = static_cast<int>(std::strtol(val, &end, 10));
    } else if (key == "--commit") {
      commit = val;
    } else if (key == "--source-digest") {
      digest = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("malformed value for " + key).c_str());
    }
  }
  if (argc % 2 != 1) {
    usage("arguments come in --key value pairs");
  }
  if (trace != 0 && trace != 1) {
    usage("--trace must be 0 or 1");
  }
  if (!(cfg.seconds > 0 && cfg.seconds <= 600)) {
    usage("--seconds must be in (0, 600]");
  }
  cfg.trace = trace == 1;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t usable = subc::usable_cpus().size();
  cfg.workers = static_cast<int>(std::min<std::size_t>(
      2, std::max<std::size_t>(1, std::min<std::size_t>(hw, usable))));

  Report rep;
  try {
    if (workload == "campaign") {
      rep = run_campaign(cfg);
    } else if (workload == "deep_search") {
      rep = run_deep_search(cfg);
    } else if (workload == "service") {
      rep = run_service(cfg);
    } else {
      usage("--workload must be campaign, deep_search or service");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }

  std::string metrics;
  const auto emit = [&](const Metric& m, double value) {
    if (!std::isfinite(value)) {
      rep.expect(false, std::string("metric ") + m.name + " is not finite");
      value = 0;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, value, m.unit);
    metrics += buf;
  };
  if (!cfg.trace) {
    rep.metrics.try_emplace("peak_rss_mb", peak_rss_mb());
    rep.metrics["ok_frac"] =
        rep.attempted > 0 ? 1.0 - static_cast<double>(rep.failed) /
                                      static_cast<double>(rep.attempted)
                          : 0.0;
    for (const Metric& m : kEndToEnd) {
      const auto it = rep.metrics.find(m.name);
      if (it == rep.metrics.end()) {
        rep.expect(false, std::string("end-to-end metric ") + m.name +
                              " was not measured");
        emit(m, 0);
      } else {
        emit(m, it->second);
      }
    }
  } else {
    // A layer the workload bypasses reads 0 (e.g. the explorer on service).
    for (const Metric& m : kPerLayer) {
      const auto it = rep.metrics.find(m.name);
      emit(m, it == rep.metrics.end() ? 0.0 : it->second);
    }
  }

  std::printf(
      "{\"provenance\": {\"commit\": \"%s\", \"source_digest\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
      "\"usable_cpus\": %zu, \"explorer_workers\": %d, \"service_shards\": 2, "
      "\"seed\": %llu, \"workload\": \"%s\", \"seconds\": %.17g, "
      "\"trace\": %d}}\n",
      json_escape(commit).c_str(), json_escape(digest).c_str(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, hw, usable, cfg.workers,
      static_cast<unsigned long long>(cfg.seed), workload.c_str(), cfg.seconds,
      trace);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              rep.failed == 0 ? "true" : "false",
              static_cast<long long>(std::max<std::int64_t>(1, rep.attempted)),
              static_cast<long long>(rep.failed), metrics.c_str());
  std::fflush(stdout);
  return rep.failed == 0 ? 0 : 1;
}
