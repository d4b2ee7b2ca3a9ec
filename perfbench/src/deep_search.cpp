// Workload `deep_search`: a few long exhaustive searches over short-
// execution grid worlds, on both engines, at one fixed explorer worker
// count. The per-execution floor (world build, kernel steps, driver,
// teardown) and parallel dispatch dominate; per-search set-up, the visited
// set and the checker do almost nothing.
//
// Checks: every kNone count equals the multinomial (Σsteps)!/Π(steps!), and
// every sleep-set count equals the serial count of the same world on the
// other engine (measured once, untimed, before the rounds).
#include <algorithm>
#include <map>
#include <random>
#include <string>

#include "worlds.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace subc;

struct Search {
  std::string name;
  GridWorld world;
  int procs;
  int steps;
  Engine engine;
  Reduction reduction;
};

std::vector<Search> searches() {
  std::vector<Search> out;
  for (const Engine engine : {Engine::kStepped, Engine::kFiber}) {
    const std::string eng = engine == Engine::kFiber ? "fiber" : "stepped";
    out.push_back({"reads_3x4_none_" + eng, GridWorld::kReads, 3, 4, engine,
                   Reduction::kNone});
    out.push_back({"mixed_3x4_none_" + eng, GridWorld::kMixed, 3, 4, engine,
                   Reduction::kNone});
    out.push_back({"mixed_3x8_sleep_" + eng, GridWorld::kMixed, 3, 8, engine,
                   Reduction::kSleepSets});
  }
  return out;
}

std::int64_t multinomial(int procs, int steps) {
  // (procs·steps)! / (steps!)^procs, built up one process at a time.
  std::int64_t result = 1;
  int placed = 0;
  for (int p = 0; p < procs; ++p) {
    for (int s = 1; s <= steps; ++s) {
      ++placed;
      result = result * placed / s;
    }
  }
  return result;
}

}  // namespace

Report run_deep_search(const Config& cfg) {
  Report rep;
  const double setup_s = explorer_setup_s(cfg.workers);
  const std::vector<Search> plan = searches();

  Explorer::Options serial;
  serial.max_executions = 50'000'000;
  Explorer::Options parallel = serial;
  parallel.threads = cfg.workers;

  // Reference counts: serial, untimed.
  std::map<std::string, std::int64_t> expected;
  std::map<std::string, Explorer::Result> reference;
  ExploreTally scratch;
  for (const Search& s : plan) {
    Explorer::Options o = serial;
    o.reduction = s.reduction;
    reference[s.name] =
        timed_explore(grid_body(s.world, s.procs, s.steps, s.engine), o,
                      scratch);
  }
  for (const Search& s : plan) {
    if (s.reduction == Reduction::kNone) {
      expected[s.name] = multinomial(s.procs, s.steps);
    } else {
      // Sleep-set counts: identical across engines (and, below, worker
      // counts); pinned to the stepped engine's serial count.
      const std::string stepped =
          s.name.substr(0, s.name.rfind('_')) + "_stepped";
      expected[s.name] = reference.at(stepped).executions;
    }
    rep.expect(reference.at(s.name).executions == expected.at(s.name) &&
                   reference.at(s.name).ok(),
               "deep_search serial reference " + s.name + ": " +
                   std::to_string(reference.at(s.name).executions) +
                   " executions, expected " +
                   std::to_string(expected.at(s.name)));
  }

  std::mt19937_64 order_rng(cfg.seed);
  ExploreTally tally;
  std::vector<double> latencies_us;
  latencies_us.reserve(1 << 20);
  const auto round = [&]() {
    std::vector<const Search*> order;
    for (const Search& s : plan) {
      order.push_back(&s);
    }
    std::shuffle(order.begin(), order.end(), order_rng);
    Round r;
    const std::int64_t grants0 = Tracer::total().grants;
    const std::int64_t start = now_ns();
    for (const Search* s : order) {
      Explorer::Options o = parallel;
      o.reduction = s->reduction;
      const std::int64_t t0 = now_ns();
      const Explorer::Result res = timed_explore(
          grid_body(s->world, s->procs, s->steps, s->engine), o, tally);
      latencies_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      r.executions += res.executions;
      const bool ok = res.ok() && res.complete &&
                      res.executions == expected.at(s->name);
      rep.expect(ok, ok ? std::string()
                        : "deep_search " + s->name + ": " +
                              std::to_string(res.executions) +
                              " executions, expected " +
                              std::to_string(expected.at(s->name)));
    }
    r.wall_ns = now_ns() - start;
    r.grants = Tracer::total().grants - grants0;
    return r;
  };
  if (!cfg.trace) {
    explorer_e2e_metrics(rep, repeat_rounds(cfg.seconds, round), latencies_us,
                         setup_s);
    return rep;
  }

  const std::vector<Round> plain = repeat_rounds(cfg.seconds / 2, round);
  tally = ExploreTally{};
  std::vector<Round> traced;
  const subc::AllocCounters alloc = traced_window(
      [&] { traced = repeat_rounds(cfg.seconds / 2, round); });
  explorer_layer_metrics(rep, plain, traced, Tracer::total(), tally, alloc);
  return rep;
}

}  // namespace perfbench
