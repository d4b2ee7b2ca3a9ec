// Pieces shared by the workloads: the failure ledger, explorer set-up, RSS,
// and the explorer-layer breakdown of a traced run.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "worlds.hpp"
#include "workloads.hpp"

namespace perfbench {

void Report::count(std::int64_t n, std::int64_t bad, const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad != 0) {
    std::printf("FAILED: %s (%lld of %lld)\n", what.c_str(),
                static_cast<long long>(bad), static_cast<long long>(n));
  }
}

double explorer_setup_s(int workers) {
  using namespace subc;
  std::vector<double> samples;
  ExploreTally scratch;
  const auto search = [&](GridWorld world, int procs, Engine engine,
                          const Explorer::Options& opts) {
    const Explorer::Result r =
        timed_explore(grid_body(world, procs, 2, engine), opts, scratch);
    if (!r.ok() || !r.complete) {
      throw std::runtime_error("explorer set-up search failed");
    }
  };
  for (int rep = 0; rep < 11; ++rep) {
    const std::int64_t t0 = now_ns();
    const Explorer::Options serial;
    search(GridWorld::kReads, 2, Engine::kFiber, serial);
    search(GridWorld::kReads, 2, Engine::kStepped, serial);
    Explorer::Options parallel;
    parallel.threads = workers;
    search(GridWorld::kMixed, 3, Engine::kFiber, parallel);
    Explorer::Options stateful;
    stateful.stateful = true;
    search(GridWorld::kMixed, 2, Engine::kStepped, stateful);
    samples.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return median(samples);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void explorer_e2e_metrics(Report& rep, const std::vector<Round>& rounds,
                          std::vector<double>& latencies_us, double setup_s) {
  std::vector<double> wall, rate, ops;
  for (const Round& r : rounds) {
    const double s = static_cast<double>(r.wall_ns) / 1e9;
    wall.push_back(s);
    rate.push_back(static_cast<double>(r.executions) / s);
    ops.push_back(static_cast<double>(r.grants) / s);
  }
  rep.metrics["setup_s"] = setup_s;
  rep.metrics["verdict_s"] = median(wall);
  rep.metrics["exec_per_s"] = median(rate);
  rep.metrics["ops_per_s"] = median(ops);
  rep.metrics["decide_p50_us"] = quantile(latencies_us, 0.50);
  rep.metrics["decide_p99_us"] = quantile(latencies_us, 0.99);
  std::printf("%zu rounds, %zu verdicts\n", rounds.size(),
              latencies_us.size());
}

void explorer_layer_metrics(Report& rep, const std::vector<Round>& plain,
                            const std::vector<Round>& traced, const Tally& t,
                            const ExploreTally& e,
                            const subc::AllocCounters& alloc) {
  const auto per = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  std::vector<double> plain_wall, traced_wall;
  std::int64_t wall_ns = 0;
  std::int64_t other_ns = 0;
  for (const Round& r : plain) {
    plain_wall.push_back(d(r.wall_ns));
  }
  for (const Round& r : traced) {
    traced_wall.push_back(d(r.wall_ns));
    wall_ns += r.wall_ns;
    other_ns += r.library_ns;
  }
  const auto rounds = static_cast<std::int64_t>(traced.size());
  const double bodies = d(t.bodies);
  const double explorer_self = d(e.worker_ns - t.body_ns);
  const double run_self = d(t.run_ns - t.sched_ns - t.hash_ns);
  auto& m = rep.metrics;
  m["explorer.first_exec_us"] = per(d(e.first_ns), d(e.calls)) / 1e3;
  m["explorer.tail_us"] = per(d(e.tail_ns), d(e.calls)) / 1e3;
  m["explorer.self_ns_per_exec"] =
      per(explorer_self - d(e.first_ns) - d(e.tail_ns), bodies);
  m["explorer.worker_util"] = per(d(t.body_ns), d(e.worker_ns));
  m["explorer.useful_frac"] = per(d(e.executions), bodies);
  m["explorer.calls"] = per(d(e.calls), d(rounds));
  m["explorer.executions"] = per(d(e.executions), d(rounds));
  m["explorer.reduced_subtrees"] = per(d(e.reduced_subtrees), d(rounds));
  m["explorer.stateful_cuts"] = per(d(e.stateful_cuts), d(rounds));
  m["runtime.build_ns_per_exec"] = per(d(t.build_ns), bodies);
  m["runtime.run_ns_per_exec"] = per(run_self, bodies);
  m["runtime.teardown_ns_per_exec"] = per(d(t.teardown_ns), bodies);
  m["runtime.fiber_ns_per_step"] = per(d(t.fiber_self_ns), d(t.fiber_steps));
  m["runtime.stepped_ns_per_step"] =
      per(d(t.stepped_self_ns), d(t.stepped_steps));
  m["runtime.steps_per_exec"] =
      per(d(t.fiber_steps + t.stepped_steps), d(t.completed));
  m["scheduler.decide_ns"] = per(d(t.sched_ns), d(t.sched_calls));
  m["scheduler.decisions_per_exec"] = per(d(t.sched_calls), bodies);
  m["hashing.probe_ns"] = per(d(t.hash_ns), d(t.probes));
  m["hashing.cut_frac"] = per(d(t.probe_cuts), d(t.probes));
  m["checking.check_ns"] = per(d(t.check_ns), d(t.checks));
  m["checking.checks"] = per(d(t.checks), d(rounds));
  m["library.search_frac"] = per(d(other_ns), d(wall_ns));
  m["arena.chunks"] = per(static_cast<double>(alloc.arena_chunks), d(rounds));
  m["arena.bytes"] = per(static_cast<double>(alloc.arena_bytes), d(rounds));

  // Reconciliation, in worker-ns: each explore call contributes workers ×
  // its wall, the rest of the rounds' wall is serial. Layer self times:
  // explorer (call time its bodies do not cover), the body phases, and the
  // opaque library searches. What no layer claims is the benchmark's own
  // loop and verdict bookkeeping between calls.
  const double wall = d(e.worker_ns) + d(wall_ns - e.wall_ns);
  const double layers = explorer_self + d(t.build_ns) + run_self +
                        d(t.sched_ns) + d(t.hash_ns) + d(t.check_ns) +
                        d(t.teardown_ns) + d(other_ns);
  const double unaccounted = per(wall - layers, wall);
  m["trace.unaccounted_frac"] = unaccounted;
  m["trace.overhead_frac"] = median(traced_wall) / median(plain_wall) - 1.0;
  rep.expect(std::fabs(unaccounted) <= 0.10,
             "trace reconciliation: layers leave " +
                 std::to_string(unaccounted) +
                 " of the traced wall unaccounted");
}

}  // namespace perfbench
