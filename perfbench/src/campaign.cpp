// Workload `campaign`: a serial verification campaign of many small
// exhaustive searches, each ending in a verdict that must match the paper.
//
// Cells (one round runs each once, in a seed-shuffled order):
//  * the WRN_k and GAC(n,i) protocol-family searches of the library
//    (`search_wrn_two_consensus_protocols`, `search_gac_consensus_protocols`):
//    WRN_2 has 8 winning protocols and WRN_k>=3 none; GAC succeeds for
//    procs <= n and fails at n+1. They explore internally, so they are timed
//    as opaque calls;
//  * Algorithm 5 (WrnFromSse, fiber-hosted) under max_crashes = 1 with a
//    linearizability check on every execution — linearizable — and its
//    doorway-ablated variant, which must be convicted (shrunk witness);
//  * the recoverable-consensus grid at f = 1, r = 1: durable sticky solves
//    it, volatile sticky and swap at either durability are convicted;
//  * sleep-set and sleep+stateful cells over the F5 grid worlds, with the
//    stateful stepped twin of mixed 3x4 pinned to the fiber counts.
// Proposal values and cell order come from the seed; tree shapes do not
// depend on the values, so every round of a run must repeat each cell's
// counts exactly.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <random>
#include <string>
#include <unordered_map>

#include "subc/algorithms/classic_consensus.hpp"
#include "subc/algorithms/stepped_bodies.hpp"
#include "subc/algorithms/wrn_from_sse.hpp"
#include "subc/checking/linearizability.hpp"
#include "subc/core/consensus_number.hpp"
#include "subc/objects/register.hpp"
#include "subc/objects/sticky_register.hpp"
#include "subc/objects/swap.hpp"
#include "subc/objects/wrn.hpp"
#include "worlds.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace subc;

/// What a cell reports; compared round to round and traced to untraced.
struct Outcome {
  bool ok = false;
  bool complete = false;
  std::int64_t executions = 0;
  std::int64_t reduced = 0;
  std::int64_t cuts = 0;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

struct Cell {
  std::string name;
  /// Runs the cell (an explore call, or an opaque library search whose
  /// `executions` field carries its winner count).
  std::function<Outcome(ExploreTally&)> run;
  /// Paper verdict: true = the claim holds (no violation) / the family has
  /// winners.
  bool expect_ok = true;
  /// Cells whose counts must equal another cell's (engine twins).
  std::string same_counts_as;
  bool library = false;
};

void require_recoverable_consensus(const Runtime::RunResult& run,
                                   Value in0, Value in1) {
  Value decided = kBottom;
  for (std::size_t p = 0; p < run.decisions.size(); ++p) {
    const Value d = run.decisions[p];
    if (d == kBottom) {
      continue;  // a proposer crashed for good decides nothing
    }
    if (d != in0 && d != in1) {
      throw SpecViolation("validity: process " + std::to_string(p) +
                          " decided unproposed value " + to_string(d));
    }
    if (decided == kBottom) {
      decided = d;
    } else if (d != decided) {
      throw SpecViolation("agreement: decisions " + to_string(decided) +
                          " and " + to_string(d));
    }
  }
}

ExecutionBody algorithm5_body(WrnFromSse::Options options, Value v0, Value v1,
                              Value v2) {
  // The §5 doorway scenario: p0 invokes w1 then w0, p1 invokes w2.
  return instrument(
      [=](SchedulePolicy& policy, Phases& ph) {
        Runtime rt;
        WrnFromSse object(3, options);
        History history;
        rt.add_process([&](Context& ctx) {
          object.one_shot_wrn(ctx, 1, v1, &history);
          object.one_shot_wrn(ctx, 0, v0, &history);
        });
        rt.add_process(
            [&](Context& ctx) { object.one_shot_wrn(ctx, 2, v2, &history); });
        ph.built();
        ph.ran(rt.run(policy).total_steps);
        ph.check([&] { require_linearizable(OneShotWrnSpec{3}, history); });
      },
      Engine::kFiber);
}

ExecutionBody sticky_body(Durability durability, Engine engine, Value in0,
                          Value in1) {
  return instrument(
      [=](SchedulePolicy& policy, Phases& ph) {
        Runtime rt;
        StickyRegister sticky(durability);
        const Value in[2] = {in0, in1};
        for (int p = 0; p < 2; ++p) {
          if (engine == Engine::kFiber) {
            rt.add_process([&sticky, v = in[p]](Context& ctx) {
              ctx.decide(consensus_from_sticky(ctx, sticky, v));
            });
          } else {
            rt.add_stepped(SteppedStickyConsensus{&sticky, in[p]});
          }
        }
        ph.built();
        const auto run = rt.run(policy);
        ph.ran(run.total_steps);
        ph.check([&] { require_recoverable_consensus(run, in0, in1); });
      },
      engine);
}

ExecutionBody swap_body(Durability durability, Engine engine, Value in0,
                        Value in1) {
  return instrument(
      [=](SchedulePolicy& policy, Phases& ph) {
        Runtime rt;
        TwoConsensusShared shared;
        SwapRegister swap(kBottom, durability);
        const Value in[2] = {in0, in1};
        for (int p = 0; p < 2; ++p) {
          if (engine == Engine::kFiber) {
            rt.add_process([&shared, &swap, p, v = in[p]](Context& ctx) {
              ctx.decide(consensus2_from_swap(ctx, shared, swap, p, v));
            });
          } else {
            rt.add_stepped(SteppedSwapConsensus{&shared, &swap, p, in[p]});
          }
        }
        ph.built();
        const auto run = rt.run(policy);
        ph.ran(run.total_steps);
        ph.check([&] { require_recoverable_consensus(run, in0, in1); });
      },
      engine);
}

Cell explore_cell(std::string name, ExecutionBody body,
                  Explorer::Options opts, bool expect_ok,
                  std::string same_counts_as = {}) {
  Cell c;
  c.name = std::move(name);
  c.expect_ok = expect_ok;
  c.same_counts_as = std::move(same_counts_as);
  c.run = [body = std::move(body), opts](ExploreTally& tally) {
    const Explorer::Result r = timed_explore(body, opts, tally);
    return Outcome{r.ok(), r.complete, r.executions, r.reduced_subtrees,
                   r.stateful_cuts};
  };
  return c;
}

Cell library_cell(std::string name, std::function<long()> winners,
                  bool expect_winners) {
  Cell c;
  c.name = std::move(name);
  c.expect_ok = expect_winners;
  c.library = true;
  c.run = [winners = std::move(winners)](ExploreTally&) {
    const long n = winners();
    return Outcome{n > 0, true, n, 0, 0};
  };
  return c;
}

/// Distinct non-⊥ proposal values drawn from the seed.
std::vector<Value> draw_values(std::mt19937_64& rng, int count) {
  std::vector<Value> out;
  while (static_cast<int>(out.size()) < count) {
    const auto v = static_cast<Value>(100 + rng() % 1'000'000);
    if (std::find(out.begin(), out.end(), v) == out.end()) {
      out.push_back(v);
    }
  }
  return out;
}

std::vector<Cell> make_cells(std::mt19937_64& rng) {
  std::vector<Cell> cells;
  for (const int k : {2, 3, 4}) {
    cells.push_back(library_cell(
        "wrn_protocols_k" + std::to_string(k),
        [k] {
          const auto r = search_wrn_two_consensus_protocols(k);
          // WRN_2 (swap) has exactly 8 winners; WRN_k>=3 none (Theorem 1).
          return (k == 2 && r.correct != 8) ? -1 : r.correct;
        },
        k == 2));
  }
  for (const auto& [n, i] : {std::pair{2, 0}, {2, 1}, {3, 1}}) {
    for (const int procs : {n, n + 1}) {
      cells.push_back(library_cell(
          "gac_protocols_n" + std::to_string(n) + "_i" + std::to_string(i) +
              "_p" + std::to_string(procs),
          [n, i, procs] {
            return search_gac_consensus_protocols(n, i, procs).correct;
          },
          procs <= n));
    }
  }

  // Algorithm 5 under sleep sets (the raw f=1 tree is 24x larger and would
  // turn the campaign into a per-execution workload); the ablated variant
  // is convicted under both reductions.
  const std::vector<Value> a5 = draw_values(rng, 3);
  Explorer::Options a5_opts;
  a5_opts.max_crashes = 1;
  cells.push_back(explore_cell("algorithm5_f1_sleep",
                               algorithm5_body({}, a5[0], a5[1], a5[2]),
                               a5_opts, true));
  a5_opts.shrink_violations = true;
  for (const Reduction red : {Reduction::kNone, Reduction::kSleepSets}) {
    a5_opts.reduction = red;
    cells.push_back(explore_cell(
        std::string("algorithm5_no_doorway_f1_") +
            (red == Reduction::kNone ? "none" : "sleep"),
        algorithm5_body({.use_doorway = false}, a5[0], a5[1], a5[2]), a5_opts,
        false));
  }

  const std::vector<Value> rc = draw_values(rng, 2);
  for (const Engine engine : {Engine::kFiber, Engine::kStepped}) {
    const std::string eng = engine == Engine::kFiber ? "fiber" : "stepped";
    for (const Durability d : {Durability::kDurable, Durability::kVolatile}) {
      const std::string dur =
          d == Durability::kDurable ? "durable" : "volatile";
      Explorer::Options o;
      o.max_crashes = 1;
      o.max_recoveries = 1;
      o.shrink_violations = true;
      const auto twin_of = [&](const std::string& base) {
        return engine == Engine::kStepped ? base + "_fiber" : std::string{};
      };
      const std::string sticky = "sticky_" + dur + "_f1r1";
      cells.push_back(explore_cell(sticky + "_" + eng,
                                   sticky_body(d, engine, rc[0], rc[1]), o,
                                   d == Durability::kDurable, twin_of(sticky)));
      const std::string swap = "swap_" + dur + "_f1r1";
      cells.push_back(explore_cell(swap + "_" + eng,
                                   swap_body(d, engine, rc[0], rc[1]), o, false,
                                   twin_of(swap)));
    }
  }

  struct Grid {
    GridWorld world;
    int procs;
    int steps;
  };
  for (const Grid g :
       {Grid{GridWorld::kMixed, 2, 6}, Grid{GridWorld::kMixed, 3, 3},
        Grid{GridWorld::kMixed, 3, 4}, Grid{GridWorld::kReads, 3, 3}}) {
    const std::string base = std::string(grid_name(g.world)) + "_" +
                             std::to_string(g.procs) + "x" +
                             std::to_string(g.steps);
    Explorer::Options o;
    cells.push_back(explore_cell(base + "_sleep",
                                 grid_body(g.world, g.procs, g.steps,
                                           Engine::kFiber),
                                 o, true));
    o.stateful = true;
    cells.push_back(explore_cell(base + "_stateful",
                                 grid_body(g.world, g.procs, g.steps,
                                           Engine::kFiber),
                                 o, true));
    if (g.world == GridWorld::kMixed && g.procs == 3 && g.steps == 4) {
      cells.push_back(explore_cell(base + "_stateful_stepped",
                                   grid_body(g.world, g.procs, g.steps,
                                             Engine::kStepped),
                                   o, true, base + "_stateful"));
    }
  }
  return cells;
}

class Campaign {
 public:
  Campaign(const Config& cfg, Report& rep) : rep_(rep) {
    std::mt19937_64 rng(cfg.seed);
    cells_ = make_cells(rng);
    order_rng_.seed(cfg.seed ^ 0x9e3779b97f4a7c15ULL);
  }

  /// Runs every cell once in a fresh seed-driven order and checks each
  /// verdict. `outcomes` receives each cell's outcome by name.
  Round round(std::vector<double>& latencies_us,
              std::unordered_map<std::string, Outcome>& outcomes,
              bool shuffled = true) {
    std::vector<std::size_t> order(cells_.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    if (shuffled) {
      std::shuffle(order.begin(), order.end(), order_rng_);
    }
    Round r;
    const std::int64_t grants0 = Tracer::total().grants;
    const std::int64_t start = now_ns();
    for (const std::size_t idx : order) {
      const Cell& cell = cells_[idx];
      const std::int64_t t0 = now_ns();
      Outcome out;
      bool threw = false;
      try {
        out = cell.run(explore_);
      } catch (const std::exception& e) {
        threw = true;
        std::printf("campaign: cell %s threw: %s\n", cell.name.c_str(),
                    e.what());
      }
      const std::int64_t t1 = now_ns();
      latencies_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (cell.library) {
        r.library_ns += t1 - t0;
      } else {
        r.executions += out.executions;
      }
      check(cell, out, threw);
      outcomes[cell.name] = out;
    }
    r.wall_ns = now_ns() - start;
    r.grants = Tracer::total().grants - grants0;
    return r;
  }

  [[nodiscard]] const ExploreTally& explore_tally() const { return explore_; }
  void reset_explore_tally() { explore_ = ExploreTally{}; }

 private:
  void check(const Cell& cell, const Outcome& out, bool threw) {
    // A conviction stops the search, so only a clean verdict is complete.
    bool ok = !threw && out.ok == cell.expect_ok &&
              (out.complete || !cell.expect_ok);
    if (cell.library && out.executions < 0) {
      ok = false;  // the winner count itself is wrong
    }
    // Counts repeat exactly round to round, and engine twins agree.
    const auto [it, fresh] = first_.try_emplace(cell.name, out);
    ok = ok && (fresh || it->second == out);
    if (!cell.same_counts_as.empty()) {
      const auto twin = first_.find(cell.same_counts_as);
      ok = ok && (twin == first_.end() ||
                  (twin->second.executions == out.executions &&
                   twin->second.cuts == out.cuts));
    }
    // The message is built only on failure, keeping the round loop free of
    // allocations that would fragment the heap between cells.
    rep_.expect(ok, ok ? std::string()
                       : "campaign cell " + cell.name + " (ok=" +
                             std::to_string(out.ok) + " complete=" +
                             std::to_string(out.complete) + " executions=" +
                             std::to_string(out.executions) + ")");
  }

  Report& rep_;
  std::vector<Cell> cells_;
  std::mt19937_64 order_rng_;
  ExploreTally explore_;
  std::unordered_map<std::string, Outcome> first_;
};

}  // namespace

Report run_campaign(const Config& cfg) {
  Report rep;
  const double setup_s = explorer_setup_s(cfg.workers);
  Campaign campaign(cfg, rep);
  std::vector<double> latencies_us;
  latencies_us.reserve(1 << 20);
  std::unordered_map<std::string, Outcome> outcomes;

  // Warm-up round in the listed cell order, untimed: first-touch costs
  // belong to setup_s. Peak RSS is read after it — the footprint of every
  // verdict once. The shuffled rounds that follow can grow the heap further
  // by an amount that depends on the order (allocator fragmentation around
  // the 16 MB visited-set tables), which would make the metric a function
  // of the seed.
  campaign.round(latencies_us, outcomes, /*shuffled=*/false);
  latencies_us.clear();
  const double rss_mb = peak_rss_mb();

  if (!cfg.trace) {
    const std::vector<Round> rounds = repeat_rounds(
        cfg.seconds, [&] { return campaign.round(latencies_us, outcomes); });
    explorer_e2e_metrics(rep, rounds, latencies_us, setup_s);
    rep.metrics["peak_rss_mb"] = rss_mb;
    return rep;
  }

  // Traced run: an untraced half for the overhead baseline, then the
  // traced half; every cell's outcome must be identical in both.
  const std::vector<Round> plain = repeat_rounds(
      cfg.seconds / 2, [&] { return campaign.round(latencies_us, outcomes); });
  const auto plain_outcomes = outcomes;
  campaign.reset_explore_tally();
  std::vector<Round> traced;
  const subc::AllocCounters alloc = traced_window([&] {
    traced = repeat_rounds(cfg.seconds / 2, [&] {
      return campaign.round(latencies_us, outcomes);
    });
  });
  for (const auto& [name, out] : plain_outcomes) {
    rep.expect(outcomes.at(name) == out,
               "campaign purity: traced outcome of " + name +
                   " differs from untraced");
  }
  explorer_layer_metrics(rep, plain, traced, Tracer::total(),
                         campaign.explore_tally(), alloc);
  return rep;
}

}  // namespace perfbench
