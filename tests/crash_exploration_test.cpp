// Exhaustive crash-failure exploration (Explorer::Options::max_crashes), the
// step-quota watchdog, CrashAdversary plan validation, and the crash-event
// round trip through trace_jsonl into trace_viz.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <vector>

#include "subc/algorithms/wrn_from_sse.hpp"
#include "subc/checking/linearizability.hpp"
#include "subc/checking/trace_jsonl.hpp"
#include "subc/checking/trace_viz.hpp"
#include "subc/objects/register.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/policy.hpp"
#include "subc/runtime/runtime.hpp"

namespace subc {
namespace {

// ---------------------------------------------------------------------------
// Crash branching on a hand-countable world.
// ---------------------------------------------------------------------------

TEST(CrashExploration, SingleCrashPlacementsOnTinyWorldAreExhaustive) {
  // 2 processes x 1 write each. The crash-free tree has exactly 2 schedules;
  // with max_crashes = 1 every execution either chooses "no crash"
  // everywhere (recovering those 2 schedules exactly) or lands one crash —
  // so executions split cleanly into the base count plus the crashed ones,
  // and every victim is actually exercised.
  std::set<std::vector<ProcState>> outcomes;
  Explorer::Options opts;
  opts.reduction = Reduction::kNone;
  opts.max_crashes = 1;
  const auto result = Explorer::explore(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        RegisterArray<> regs(2, kBottom);
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
        }
        const auto run = rt.run(driver);
        outcomes.insert(run.states);
      },
      opts);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.crashed_executions, 0);
  EXPECT_EQ(result.executions, 2 + result.crashed_executions);
  // Every single-crash outcome is reachable: nobody dies, p0 dies, p1 dies,
  // and (since f = 1) never both.
  using PS = ProcState;
  EXPECT_TRUE(outcomes.contains({PS::kDone, PS::kDone}));
  EXPECT_TRUE(outcomes.contains({PS::kCrashed, PS::kDone}));
  EXPECT_TRUE(outcomes.contains({PS::kDone, PS::kCrashed}));
  EXPECT_FALSE(outcomes.contains({PS::kCrashed, PS::kCrashed}));
}

TEST(CrashExploration, CrashBudgetZeroIsTheBaseline) {
  // max_crashes = 0 (the default) must not perturb the search at all.
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> regs(3, kBottom);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        regs[p].write(ctx, p);
        regs[(p + 1) % 3].read(ctx);
      });
    }
    rt.run(driver);
  };
  Explorer::Options plain;
  plain.reduction = Reduction::kNone;
  Explorer::Options zero = plain;
  zero.max_crashes = 0;
  const auto a = Explorer::explore(body, plain);
  const auto b = Explorer::explore(body, zero);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(b.crashed_executions, 0);
  EXPECT_EQ(b.stuck_executions, 0);
}

// ---------------------------------------------------------------------------
// Algorithm 5 under exhaustive single-crash placement: the §5 doorway
// scenario (w1 then w0 on p0, concurrent w2 on p1). The full construction is
// linearizable over *all* crash placements; the doorway-ablated variant is
// convicted deterministically, with bit-identical results across reduction
// modes and thread counts.
// ---------------------------------------------------------------------------

ExecutionBody doorway_body(WrnFromSse::Options options) {
  return [options](SchedulePolicy& driver) {
    Runtime rt;
    WrnFromSse object(3, options);
    History history;
    rt.add_process([&](Context& ctx) {
      object.one_shot_wrn(ctx, 1, 101, &history);
      object.one_shot_wrn(ctx, 0, 100, &history);
    });
    rt.add_process(
        [&](Context& ctx) { object.one_shot_wrn(ctx, 2, 102, &history); });
    rt.run(driver);
    require_linearizable(OneShotWrnSpec{3}, history);
  };
}

TEST(CrashExploration, Algorithm5LinearizableOverAllSingleCrashPlacements) {
  Explorer::Result first;
  bool have_first = false;
  for (const Reduction reduction : {Reduction::kNone, Reduction::kSleepSets}) {
    for (const int threads : {1, 4}) {
      Explorer::Options opts;
      opts.reduction = reduction;
      opts.threads = threads;
      opts.max_crashes = 1;
      const auto result =
          Explorer::explore(doorway_body(WrnFromSse::Options{}), opts);
      EXPECT_TRUE(result.ok())
          << "reduction=" << static_cast<int>(reduction)
          << " threads=" << threads << ": " << *result.violation;
      EXPECT_TRUE(result.complete);
      EXPECT_GT(result.crashed_executions, 0);
      // Verdict and crash coverage are bit-identical at 1 and 4 threads for
      // a fixed reduction; across reductions only the verdict (and soundness
      // of the crashed count being > 0) is comparable.
      if (!have_first) {
        first = result;
        have_first = true;
      } else if (reduction == Reduction::kNone) {
        EXPECT_EQ(result.executions, first.executions);
        EXPECT_EQ(result.crashed_executions, first.crashed_executions);
      }
    }
  }
}

TEST(CrashExploration, DoorwayAblationConvictedDeterministically) {
  std::optional<std::string> first_violation;
  std::string first_trace;
  std::int64_t first_executions = -1;
  for (const Reduction reduction : {Reduction::kNone, Reduction::kSleepSets}) {
    for (const int threads : {1, 4}) {
      Explorer::Options opts;
      opts.reduction = reduction;
      opts.threads = threads;
      opts.max_crashes = 1;
      const auto result = Explorer::explore(
          doorway_body(WrnFromSse::Options{.use_doorway = false}), opts);
      ASSERT_TRUE(result.violation.has_value())
          << "reduction=" << static_cast<int>(reduction)
          << " threads=" << threads;
      // Thread count must not move the verdict, the witness, or the tallies.
      if (threads == 1) {
        first_violation = result.violation;
        first_trace = format_trace(result.violating_trace);
        first_executions = result.executions;
      } else {
        EXPECT_EQ(result.violation, first_violation);
        EXPECT_EQ(format_trace(result.violating_trace), first_trace);
        EXPECT_EQ(result.executions, first_executions);
      }
      // The witness replays: the recorded trace (crash decisions included)
      // deterministically reproduces the violation.
      EXPECT_THROW(
          Explorer::replay(
              doorway_body(WrnFromSse::Options{.use_doorway = false}),
              result.violating_trace),
          std::exception);
    }
  }
}

// ---------------------------------------------------------------------------
// Step-quota watchdog: livelocked schedules become StuckExecution
// diagnostics instead of hangs.
// ---------------------------------------------------------------------------

ExecutionBody livelock_body() {
  return [](SchedulePolicy& driver) {
    Runtime rt;
    Register<> flag(0);
    Register<> scratch(kBottom);
    rt.add_process([&](Context& ctx) { flag.write(ctx, 1); });
    // Two spinners on the same registers (so their laps stay dependent and
    // the reduction cannot collapse the tree): `flag` is re-read each lap,
    // but nothing ever writes the value that would let either loop exit —
    // every schedule of this world is non-terminating.
    for (int s = 0; s < 2; ++s) {
      rt.add_process([&](Context& ctx) {
        while (flag.read(ctx) != 2) {
          scratch.write(ctx, 0);
        }
      });
    }
    rt.run(driver);
  };
}

TEST(CrashExploration, WatchdogConvertsLivelockIntoStuckExecutions) {
  // The budget covers the whole quota-bounded reduced tree (4226
  // executions at quota 16), so the search is *complete* — which is what
  // licenses the cross-thread canonical-first-stuck comparison below (on a
  // budget-truncated run, serial and parallel legitimately sample
  // different subsets of the tree; see docs/explorer.md).
  Explorer::Options opts;
  opts.step_quota = 16;
  opts.max_executions = 5000;
  const auto serial = Explorer::explore(livelock_body(), opts);
  // No schedule terminates, so *every* execution is cut by the watchdog;
  // the search itself terminates (the quota bounds the tree depth) instead
  // of hanging.
  EXPECT_TRUE(serial.ok());
  EXPECT_TRUE(serial.complete);
  EXPECT_GT(serial.executions, 0);
  EXPECT_EQ(serial.stuck_executions, serial.executions);
  ASSERT_TRUE(serial.first_stuck.has_value());
  EXPECT_NE(serial.first_stuck->message.find("step quota"), std::string::npos);
  EXPECT_FALSE(serial.first_stuck->trace.empty());

  // The attached trace replays to the same cut under the same quota.
  ReplayDriver driver(serial.first_stuck->trace);
  driver.set_step_quota(opts.step_quota);
  EXPECT_THROW(livelock_body()(driver), StuckCut);

  // Bit-identical under parallel exploration, down to the canonically
  // least stuck execution's trace.
  opts.threads = 4;
  const auto parallel = Explorer::explore(livelock_body(), opts);
  EXPECT_EQ(parallel.executions, serial.executions);
  EXPECT_EQ(parallel.stuck_executions, serial.stuck_executions);
  EXPECT_EQ(parallel.complete, serial.complete);
  ASSERT_TRUE(parallel.first_stuck.has_value());
  EXPECT_EQ(parallel.first_stuck->message, serial.first_stuck->message);
  EXPECT_EQ(format_trace(parallel.first_stuck->trace),
            format_trace(serial.first_stuck->trace));

  // Without reduction the quota-depth tree dwarfs any budget, so the
  // search is budget-truncated at exactly max_executions — still no hang,
  // and every sampled execution is honestly reported stuck.
  Explorer::Options raw;
  raw.step_quota = 16;
  raw.max_executions = 40;
  raw.reduction = Reduction::kNone;
  const auto truncated = Explorer::explore(livelock_body(), raw);
  EXPECT_EQ(truncated.executions, 40);
  EXPECT_EQ(truncated.stuck_executions, 40);
  EXPECT_FALSE(truncated.complete);
}

TEST(CrashExploration, WatchdogLeavesTerminatingWorldsAlone) {
  // A generous quota must not change anything on a terminating world.
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> regs(2, kBottom);
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&, p](Context& ctx) {
        regs[p].write(ctx, p);
        regs[(p + 1) % 2].read(ctx);
      });
    }
    rt.run(driver);
  };
  Explorer::Options plain;
  Explorer::Options guarded;
  guarded.step_quota = 10'000;
  const auto a = Explorer::explore(body, plain);
  const auto b = Explorer::explore(body, guarded);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(b.stuck_executions, 0);
  EXPECT_FALSE(b.first_stuck.has_value());
}

// ---------------------------------------------------------------------------
// CrashAdversary plan validation (policy.hpp satellite).
// ---------------------------------------------------------------------------

std::string ctor_error(std::vector<CrashAdversary::CrashPoint> plan) {
  RoundRobinDriver inner;
  try {
    const CrashAdversary adversary(inner, std::move(plan));
  } catch (const SimError& e) {
    return e.what();
  }
  return {};
}

TEST(CrashAdversaryValidation, RejectsDuplicateVictimNamingTheEntry) {
  const std::string msg = ctor_error({{0, 1}, {2, 1}, {0, 3}});
  EXPECT_NE(msg.find("duplicate victim 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("entry 2"), std::string::npos) << msg;
}

TEST(CrashAdversaryValidation, RejectsNegativeAfterStepsNamingTheEntry) {
  const std::string msg = ctor_error({{1, 2}, {3, -4}});
  EXPECT_NE(msg.find("entry 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("negative after_steps -4"), std::string::npos) << msg;
}

TEST(CrashAdversaryValidation, RejectsOutOfRangeVictimNamingTheEntry) {
  const std::string msg = ctor_error({{64, 1}});
  EXPECT_NE(msg.find("entry 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("victim 64"), std::string::npos) << msg;
  EXPECT_FALSE(ctor_error({{-1, 1}}).empty());
}

TEST(CrashAdversaryValidation, ResilienceBoundCapsThePlan) {
  RoundRobinDriver inner;
  // Within the bound: fine.
  const CrashAdversary ok(inner, {{0, 1}, {1, 1}}, /*f=*/2);
  // One entry over the bound: rejected with both numbers in the message.
  try {
    const CrashAdversary bad(inner, {{0, 1}, {1, 1}, {2, 1}}, /*f=*/2);
    FAIL() << "plan exceeding f was accepted";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("3 entries"), std::string::npos) << msg;
    EXPECT_NE(msg.find("f = 2"), std::string::npos) << msg;
  }
  EXPECT_THROW(CrashAdversary(inner, {}, /*f=*/-1), SimError);
}

// ---------------------------------------------------------------------------
// Crash events round-trip through trace_jsonl and render in trace_viz.
// ---------------------------------------------------------------------------

TEST(CrashExploration, CrashEventsRoundTripThroughJsonlIntoTraceViz) {
  std::ostringstream sink;
  JsonlTraceWriter writer(sink);
  RoundRobinDriver inner;
  CrashAdversary adversary(inner, {CrashAdversary::CrashPoint{1, 2}});
  const auto violation = run_one(
      [](SchedulePolicy& driver) {
        Runtime rt;
        RegisterArray<> regs(2, kBottom);
        History history;
        history.set_sink(thread_default_observer());
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) {
            const auto h = history.invoke(p, {p});
            for (int i = 0; i < 4; ++i) {
              regs[p].write(ctx, i);
            }
            history.respond(h, {p});
          });
        }
        rt.run(driver);
      },
      adversary, &writer);
  EXPECT_FALSE(violation.has_value());

  const ParsedTrace parsed = parse_trace_jsonl(sink.str());
  ASSERT_EQ(parsed.crash_events.size(), 1u);
  EXPECT_EQ(parsed.crash_events[0].pid, 1);
  // The recorded step is the kernel's global counter at the crash; the
  // victim had taken 2 of the steps granted by then.
  EXPECT_GE(parsed.crash_events[0].step, 2);
  EXPECT_EQ(parsed.crashes, 1);

  // The recovered crash marks feed straight into the space-time diagram:
  // the crashed lane is annotated even though its operation never responded.
  TraceVizOptions viz;
  for (const CrashEvent& c : parsed.crash_events) {
    viz.crashes.emplace_back(c.pid, c.step);
  }
  const std::string diagram = render_history(parsed.history, viz);
  EXPECT_NE(diagram.find("X crashed@"), std::string::npos) << diagram;
}

TEST(CrashExploration, StuckEventsRoundTripThroughJsonl) {
  std::ostringstream sink;
  JsonlTraceWriter writer(sink);
  Explorer::Options opts;
  opts.step_quota = 12;
  opts.max_executions = 5;
  opts.observer = &writer;
  const auto result = Explorer::explore(livelock_body(), opts);
  EXPECT_EQ(result.stuck_executions, 5);
  const ParsedTrace parsed = parse_trace_jsonl(sink.str());
  ASSERT_EQ(parsed.stuck.size(), 5u);
  EXPECT_NE(parsed.stuck.front().find("step quota (12) exceeded"),
            std::string::npos);
}

}  // namespace
}  // namespace subc
