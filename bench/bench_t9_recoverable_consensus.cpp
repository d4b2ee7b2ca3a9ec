// Experiment T9 — machine-checked recoverable consensus numbers (the
// crash-recovery model: Explorer::Options::max_crashes + max_recoveries,
// the Durability axis of the object zoo).
//
// One 2-proposer consensus world per {object, durability} pair, exhaustively
// explored over the fault grid f x r in {0,1}^2 with every cell run at
// {fiber, stepped} x {kNone, kSleepSets} x threads {1, 4}:
//   * durable sticky register: solves consensus at every fault budget —
//     crash-and-restart included (re-sticking is idempotent);
//   * volatile sticky register: still solves crash-STOP consensus (its
//     single RMW decides atomically with the mutation) but is convicted
//     under crash-and-RESTART — the crash wipes the stuck value and a
//     recovered incarnation re-sticks a different one;
//   * swap — durable or volatile — solves crash-stop but is convicted
//     under crash-and-restart: swap is not idempotent, so a recovered
//     loser re-swaps, reads its own first incarnation's residue (previous
//     = its own role), and decides its own value against the winner. The
//     machine check thus separates "consensus number 2" from "recoverable
//     consensus number": durability is necessary but not sufficient — the
//     deciding RMW must also be idempotent.
// Convicted cells shrink their witness (Options::shrink_violations); the
// verdict, tallies, violation message and shrunk decision string must be
// bit-identical across both engines, both reductions, and both thread
// counts. Results land in BENCH_T9.json.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "subc/algorithms/classic_consensus.hpp"
#include "subc/algorithms/stepped_bodies.hpp"
#include "subc/objects/sticky_register.hpp"
#include "subc/objects/swap.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/runtime.hpp"

namespace {

using namespace subc;

constexpr Value kInputs[2] = {100, 101};

/// Crash-tolerant consensus validator: agreement + validity over the
/// processes that actually decided (a crashed-for-good proposer decides
/// nothing, which is allowed; two different decisions are not).
void require_recoverable_consensus(const Runtime::RunResult& run) {
  Value decided = kBottom;
  for (std::size_t p = 0; p < run.decisions.size(); ++p) {
    const Value d = run.decisions[p];
    if (d == kBottom) {
      continue;
    }
    if (d != kInputs[0] && d != kInputs[1]) {
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

ExecutionBody sticky_world(Durability durability, Engine engine) {
  return [durability, engine](SchedulePolicy& driver) {
    Runtime rt;
    StickyRegister sticky(durability);
    for (int p = 0; p < 2; ++p) {
      if (engine == Engine::kFiber) {
        rt.add_process([&sticky, p](Context& ctx) {
          ctx.decide(consensus_from_sticky(ctx, sticky, kInputs[p]));
        });
      } else {
        rt.add_stepped(SteppedStickyConsensus{&sticky, kInputs[p]});
      }
    }
    require_recoverable_consensus(rt.run(driver));
  };
}

ExecutionBody swap_world(Durability durability, Engine engine) {
  return [durability, engine](SchedulePolicy& driver) {
    Runtime rt;
    TwoConsensusShared shared;
    SwapRegister swap(kBottom, durability);
    for (int p = 0; p < 2; ++p) {
      if (engine == Engine::kFiber) {
        rt.add_process([&shared, &swap, p](Context& ctx) {
          ctx.decide(consensus2_from_swap(ctx, shared, swap, p, kInputs[p]));
        });
      } else {
        rt.add_stepped(SteppedSwapConsensus{&shared, &swap, p, kInputs[p]});
      }
    }
    require_recoverable_consensus(rt.run(driver));
  };
}

using WorldFactory = ExecutionBody (*)(Durability, Engine);

struct GridRow {
  const char* object;
  WorldFactory factory;
  /// Verdicts indexed by [durability][f][r]: true = solves exhaustively.
  bool solves[2][2][2];
};

// The machine-checked claim grid. Durable sticky solves consensus at every
// fault budget; volatile sticky survives crash-stop but not restart; swap
// survives crash-stop at either durability but loses its consensus power
// the moment restarts are allowed (non-idempotent RMW).
const GridRow kGrid[] = {
    {"sticky", sticky_world,
     {/*durable*/ {{true, true}, {true, true}},
      /*volatile*/ {{true, true}, {true, false}}}},
    {"swap", swap_world,
     {/*durable*/ {{true, true}, {true, false}},
      /*volatile*/ {{true, true}, {true, false}}}},
};

struct CellOutcome {
  bool ok = false;
  bool complete = false;
  std::int64_t executions = 0;
  std::int64_t crashed = 0;
  std::int64_t recovered = 0;
  std::int64_t stuck = 0;
  std::string violation;
  std::string trace;
};

}  // namespace

int main() {
  const int grid_threads[] = {1, 4};
  std::printf("T9: recoverable consensus numbers under crash-and-restart\n");
  std::printf("(2 proposers; every cell = fiber+stepped x none+sleep x "
              "threads {1,4}, bit-identity required)\n\n");
  std::printf("%-7s %-9s %2s %2s  %-10s %12s %9s %10s\n", "object", "durab",
              "f", "r", "verdict", "executions", "crashed", "recovered");

  bool ok = true;
  std::vector<subc_bench::Json> rows;
  const subc_bench::Stopwatch total_sw;
  subc::ExplorerTally search;

  for (const GridRow& grid_row : kGrid) {
    for (const Durability durability :
         {Durability::kDurable, Durability::kVolatile}) {
      const int d = durability == Durability::kDurable ? 0 : 1;
      for (const int f : {0, 1}) {
        for (const int r : {0, 1}) {
          // Every {engine, reduction, threads} cell must agree with the
          // first cell bit-for-bit: same verdict, tallies, violation
          // message, and shrunk witness decision string.
          std::optional<CellOutcome> first;
          bool identical = true;
          for (const Engine engine : {Engine::kFiber, Engine::kStepped}) {
            for (const Reduction reduction :
                 {Reduction::kNone, Reduction::kSleepSets}) {
              for (const int threads : grid_threads) {
                Explorer::Options opts;
                opts.reduction = reduction;
                opts.threads = threads;
                opts.max_crashes = f;
                opts.max_recoveries = r;
                opts.shrink_violations = true;
                const auto result = Explorer::explore(
                    grid_row.factory(durability, engine), opts);
                search += {.executions = result.executions,
                           .reduced = result.reduced_subtrees,
                           .crashed = result.crashed_executions,
                           .recovered = result.recovered_executions,
                           .stuck = result.stuck_executions};
                CellOutcome cell;
                cell.ok = result.ok();
                cell.complete = result.complete;
                cell.executions = result.executions;
                cell.crashed = result.crashed_executions;
                cell.recovered = result.recovered_executions;
                cell.stuck = result.stuck_executions;
                cell.violation = result.violation.value_or("");
                cell.trace = format_trace(result.violating_trace);
                if (!first.has_value()) {
                  first = cell;
                } else {
                  identical = identical && cell.ok == first->ok &&
                              cell.violation == first->violation &&
                              cell.trace == first->trace;
                  // Execution tallies are only comparable within a
                  // reduction; pin them against the kNone reference.
                  if (reduction == Reduction::kNone) {
                    identical = identical &&
                                cell.executions == first->executions &&
                                cell.crashed == first->crashed &&
                                cell.recovered == first->recovered;
                  }
                }
                // A convicted cell's shrunk witness must replay.
                if (result.violation.has_value()) {
                  bool replays = false;
                  try {
                    Explorer::replay(grid_row.factory(durability, engine),
                                     result.violating_trace);
                  } catch (const std::exception&) {
                    replays = true;
                  }
                  identical = identical && replays;
                }
              }
            }
          }

          const bool expect_solves = grid_row.solves[d][f][r];
          const bool solves = first->ok && first->complete;
          const bool faults_exercised =
              (f == 0 || !solves || first->crashed > 0) &&
              (r == 0 || f == 0 || !solves || first->recovered > 0);
          const bool pass =
              identical && solves == expect_solves && faults_exercised;
          ok = ok && pass;

          const char* verdict = solves ? "solves" : "convicted";
          std::printf("%-7s %-9s %2d %2d  %-10s %12lld %9lld %10lld\n",
                      grid_row.object, d == 0 ? "durable" : "volatile", f, r,
                      pass ? verdict : "FAIL",
                      static_cast<long long>(first->executions),
                      static_cast<long long>(first->crashed),
                      static_cast<long long>(first->recovered));
          if (!solves) {
            std::printf("        witness: %s\n        %s\n",
                        first->trace.c_str(), first->violation.c_str());
          }

          subc_bench::Json row;
          row.set("object", grid_row.object)
              .set("durability", d == 0 ? "durable" : "volatile")
              .set("max_crashes", f)
              .set("max_recoveries", r)
              .set("verdict", verdict)
              .set("executions", first->executions)
              .set("crashed_executions", first->crashed)
              .set("recovered_executions", first->recovered)
              .set("cells_identical", identical)
              .set("pass", pass);
          if (!solves) {
            row.set("violation", first->violation)
                .set("shrunk_trace", first->trace);
          }
          rows.push_back(row);
        }
      }
    }
  }

  const double total_ms = total_sw.ms();
  subc_bench::Json out;
  out.set("bench", "T9")
      .set("threads", grid_threads[1])
      .set("total_ms", total_ms)
      .set("grid", rows)
      .set("pass", ok)
      .set("search", subc_bench::search_tally_cell(search));
  subc_bench::set_rate_fields(out, search.executions, total_ms);
  subc_bench::write_json("BENCH_T9.json", out);

  std::printf("\nT9 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
