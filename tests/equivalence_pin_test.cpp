// Pins the exhaustive explorer's exact result grid on the reduction_test
// worlds (register, GAC, WRN, classic consensus): verdict, execution count
// and reduced_subtrees at fixed {engine, reduction, threads, max_crashes}.
// The crash-free numbers were captured from the pre-policy-refactor
// explorer; any drift means the re-architecture changed exhaustive-search
// semantics, which it must not.
//
// Every world exists in two forms — the fiber body and its stepped twin
// (subc/algorithms/stepped_bodies.hpp) — and both must hit the *same* pins:
// the two execution engines are required to produce bit-identical `Result`s
// (executions, reduced_subtrees, crash/stuck tallies, violations and their
// traces) across {kNone, kSleepSets} × threads {1, 4} × max_crashes {0, 1}.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>

#include "subc/algorithms/classic_consensus.hpp"
#include "subc/algorithms/stepped_bodies.hpp"
#include "subc/core/tasks.hpp"
#include "subc/objects/onk.hpp"
#include "subc/objects/register.hpp"
#include "subc/objects/swap.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

enum class Eng { kFiber, kStepped };

struct Pin {
  const char* world;
  std::int64_t executions_none;
  std::int64_t executions_sleep;
  std::int64_t reduced_sleep;
};

ExecutionBody register_world(Eng engine) {
  return [engine](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> regs(3, kBottom);
    std::array<Value, 3> seen{kBottom, kBottom, kBottom};
    for (int p = 0; p < 3; ++p) {
      if (engine == Eng::kFiber) {
        rt.add_process([&, p](Context& ctx) {
          regs[p].write(ctx, 10 + p);
          seen[static_cast<std::size_t>(p)] = regs[(p + 1) % 3].read(ctx);
        });
      } else {
        rt.add_stepped(SteppedWriteThenRead{
            &regs[p], &regs[(p + 1) % 3], 10 + p,
            &seen[static_cast<std::size_t>(p)]});
      }
    }
    rt.run(driver);
    for (int p = 0; p < 3; ++p) {
      const Value v = seen[static_cast<std::size_t>(p)];
      if (v != kBottom && v != 10 + (p + 1) % 3) {
        throw SpecViolation("read a value nobody wrote to that cell");
      }
    }
  };
}

ExecutionBody gac_world(Eng engine) {
  static const std::vector<Value> inputs{200, 201, 202};
  return [engine](SchedulePolicy& driver) {
    Runtime rt;
    GacObject gac(1, 1);
    for (int p = 0; p < 3; ++p) {
      if (engine == Eng::kFiber) {
        rt.add_process([&, p](Context& ctx) {
          ctx.decide(gac.propose(ctx, inputs[static_cast<std::size_t>(p)]));
        });
      } else {
        rt.add_stepped(
            SteppedGacProposer{&gac, inputs[static_cast<std::size_t>(p)]});
      }
    }
    const auto run = rt.run(driver);
    check_all_done_and_decided(run);
    check_set_consensus(run, inputs, 2);
  };
}

ExecutionBody wrn_world(Eng engine) {
  return [engine](SchedulePolicy& driver) {
    Runtime rt;
    OneShotWrnObject wrn(3);
    std::array<Value, 3> got{kBottom, kBottom, kBottom};
    for (int p = 0; p < 3; ++p) {
      if (engine == Eng::kFiber) {
        rt.add_process([&, p](Context& ctx) {
          got[static_cast<std::size_t>(p)] = wrn.wrn(ctx, p, 10 + p);
        });
      } else {
        rt.add_stepped(SteppedOneShotWrn{
            &wrn, p, 10 + p, &got[static_cast<std::size_t>(p)]});
      }
    }
    rt.run(driver);
    for (const Value v : got) {
      if (v != kBottom && (v < 10 || v > 12)) {
        throw SpecViolation("1sWRN returned a never-written value");
      }
    }
  };
}

ExecutionBody consensus_world(Eng engine) {
  static const std::vector<Value> inputs{3, 9};
  return [engine](SchedulePolicy& driver) {
    Runtime rt;
    TwoConsensusShared shared;
    SwapRegister swap(kBottom);
    for (int p = 0; p < 2; ++p) {
      if (engine == Eng::kFiber) {
        rt.add_process([&, p](Context& ctx) {
          ctx.decide(consensus2_from_swap(
              ctx, shared, swap, p, inputs[static_cast<std::size_t>(p)]));
        });
      } else {
        rt.add_stepped(SteppedSwapConsensus{
            &shared, &swap, p, inputs[static_cast<std::size_t>(p)]});
      }
    }
    const auto run = rt.run(driver);
    check_all_done_and_decided(run);
    check_validity(inputs, run.decisions);
    check_agreement(run.decisions);
  };
}

const char* engine_name(Eng e) {
  return e == Eng::kFiber ? "fiber" : "stepped";
}

Explorer::Result explore(const ExecutionBody& body, Reduction reduction,
                         int threads, int max_crashes, bool stateful = false,
                         int max_recoveries = 0) {
  Explorer::Options opts;
  opts.reduction = reduction;
  opts.threads = threads;
  opts.max_crashes = max_crashes;
  opts.max_recoveries = max_recoveries;
  opts.stateful = stateful;
  if (max_crashes > 0) {
    opts.step_quota = 100'000;
  }
  return Explorer::explore(body, opts);
}

/// Every field of `Result` that characterizes the search must match between
/// the two runs — including any violation and its full decision string.
void expect_identical(const Explorer::Result& got,
                      const Explorer::Result& want) {
  EXPECT_EQ(got.executions, want.executions);
  EXPECT_EQ(got.reduced_subtrees, want.reduced_subtrees);
  EXPECT_EQ(got.crashed_executions, want.crashed_executions);
  EXPECT_EQ(got.recovered_executions, want.recovered_executions);
  EXPECT_EQ(got.stuck_executions, want.stuck_executions);
  EXPECT_EQ(got.complete, want.complete);
  EXPECT_EQ(got.violation.has_value(), want.violation.has_value());
  if (got.violation.has_value() && want.violation.has_value()) {
    EXPECT_EQ(*got.violation, *want.violation);
  }
  ASSERT_EQ(got.violating_trace.size(), want.violating_trace.size());
  for (std::size_t i = 0; i < got.violating_trace.size(); ++i) {
    const auto& g = got.violating_trace[i];
    const auto& w = want.violating_trace[i];
    EXPECT_EQ(g.chosen, w.chosen) << "decision " << i;
    EXPECT_EQ(g.arity, w.arity) << "decision " << i;
    EXPECT_EQ(g.crash, w.crash) << "decision " << i;
    EXPECT_EQ(g.recover, w.recover) << "decision " << i;
  }
}

void expect_pinned(const ExecutionBody& fiber_body,
                   const ExecutionBody& stepped_body, const Pin& pin) {
  // Crash-free grid: both engines must hit the historical pins exactly.
  for (const Eng engine : {Eng::kFiber, Eng::kStepped}) {
    const ExecutionBody& body =
        engine == Eng::kFiber ? fiber_body : stepped_body;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(pin.world) + " engine=" + engine_name(engine) +
                   " threads=" + std::to_string(threads));
      const auto raw = explore(body, Reduction::kNone, threads, 0);
      EXPECT_TRUE(raw.ok()) << *raw.violation;
      EXPECT_TRUE(raw.complete);
      EXPECT_EQ(raw.executions, pin.executions_none);
      EXPECT_EQ(raw.reduced_subtrees, 0);

      const auto red = explore(body, Reduction::kSleepSets, threads, 0);
      EXPECT_TRUE(red.ok()) << *red.violation;
      EXPECT_TRUE(red.complete);
      EXPECT_EQ(red.executions, pin.executions_sleep);
      EXPECT_EQ(red.reduced_subtrees, pin.reduced_sleep);
    }
  }

  // Crash axis (f = 1): no historical pins, so the serial fiber run is the
  // reference and every other {engine, threads} cell must match it
  // bit-for-bit — tallies, verdict, and (if a validator rejects crashed
  // worlds) the violation and its trace.
  for (const Reduction reduction : {Reduction::kNone, Reduction::kSleepSets}) {
    const auto reference = explore(fiber_body, reduction, 1, 1);
    for (const Eng engine : {Eng::kFiber, Eng::kStepped}) {
      const ExecutionBody& body =
          engine == Eng::kFiber ? fiber_body : stepped_body;
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string(pin.world) + " f=1 engine=" +
                     engine_name(engine) +
                     " threads=" + std::to_string(threads) + " reduction=" +
                     (reduction == Reduction::kNone ? "none" : "sleep"));
        expect_identical(explore(body, reduction, threads, 1), reference);
      }
    }
  }

  // Recovery axis (f = 1, r = 1): crashed processes may additionally
  // restart. Same discipline — serial fiber is the reference, every cell
  // matches bit-for-bit, and the restart branch must actually fire.
  for (const Reduction reduction : {Reduction::kNone, Reduction::kSleepSets}) {
    const auto reference = explore(fiber_body, reduction, 1, 1,
                                   /*stateful=*/false, /*max_recoveries=*/1);
    if (reference.ok()) {
      // Violating worlds may stop before any restart branch; clean worlds
      // must actually exercise one.
      EXPECT_GT(reference.recovered_executions, 0) << pin.world;
    }
    for (const Eng engine : {Eng::kFiber, Eng::kStepped}) {
      const ExecutionBody& body =
          engine == Eng::kFiber ? fiber_body : stepped_body;
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string(pin.world) + " f=1 r=1 engine=" +
                     engine_name(engine) +
                     " threads=" + std::to_string(threads) + " reduction=" +
                     (reduction == Reduction::kNone ? "none" : "sleep"));
        expect_identical(explore(body, reduction, threads, 1,
                                 /*stateful=*/false, /*max_recoveries=*/1),
                         reference);
      }
    }
  }
}

/// Stateful grid: the serial fiber run under `Options::stateful` is the
/// reference. The stepped twin must reproduce it bit-for-bit *including*
/// the stateful tallies (the two engines are required to fingerprint
/// identically); parallel cells must reach the same verdict and
/// completeness (the shared visited set makes the cut/execution split
/// timing-dependent, never the verdict); and the verdict must agree with
/// the unreduced search from `expect_pinned`. Any violation's trace must
/// replay.
void expect_stateful_equivalent(const ExecutionBody& fiber_body,
                                const ExecutionBody& stepped_body,
                                const char* world) {
  for (const int max_crashes : {0, 1}) {
    SCOPED_TRACE(std::string(world) +
                 " stateful f=" + std::to_string(max_crashes));
    const auto reference =
        explore(fiber_body, Reduction::kSleepSets, 1, max_crashes,
                /*stateful=*/true);
    const auto plain =
        explore(fiber_body, Reduction::kSleepSets, 1, max_crashes);
    EXPECT_EQ(reference.ok(), plain.ok());
    EXPECT_EQ(reference.complete, plain.complete);
    EXPECT_LE(reference.executions, plain.executions);

    const auto stepped = explore(stepped_body, Reduction::kSleepSets, 1,
                                 max_crashes, /*stateful=*/true);
    expect_identical(stepped, reference);
    EXPECT_EQ(stepped.stateful_cuts, reference.stateful_cuts);
    EXPECT_EQ(stepped.stateful_states, reference.stateful_states);

    for (const Eng engine : {Eng::kFiber, Eng::kStepped}) {
      const ExecutionBody& body =
          engine == Eng::kFiber ? fiber_body : stepped_body;
      SCOPED_TRACE(std::string("threads=4 engine=") + engine_name(engine));
      const auto par = explore(body, Reduction::kSleepSets, 4, max_crashes,
                               /*stateful=*/true);
      EXPECT_EQ(par.ok(), reference.ok());
      EXPECT_EQ(par.complete, reference.complete);
      if (par.violation.has_value()) {
        EXPECT_ANY_THROW(Explorer::replay(body, par.violating_trace));
      }
    }
  }
}

// Captured from the pre-refactor explorer (PR 2 head): the policy/observer
// re-architecture must not move any of these — and the stepped engine must
// reproduce them exactly.
TEST(ExplorerEquivalencePin, RegisterWorld) {
  expect_pinned(register_world(Eng::kFiber), register_world(Eng::kStepped),
                {"register", 90, 7, 28});
}

TEST(ExplorerEquivalencePin, GacWorld) {
  expect_pinned(gac_world(Eng::kFiber), gac_world(Eng::kStepped),
                {"gac", 6, 6, 0});
}

TEST(ExplorerEquivalencePin, WrnWorld) {
  expect_pinned(wrn_world(Eng::kFiber), wrn_world(Eng::kStepped),
                {"wrn", 6, 6, 0});
}

TEST(ExplorerEquivalencePin, ClassicConsensusWorld) {
  expect_pinned(consensus_world(Eng::kFiber), consensus_world(Eng::kStepped),
                {"consensus", 6, 2, 3});
}

TEST(ExplorerEquivalencePin, RegisterWorldStateful) {
  expect_stateful_equivalent(register_world(Eng::kFiber),
                             register_world(Eng::kStepped), "register");
}

TEST(ExplorerEquivalencePin, GacWorldStateful) {
  expect_stateful_equivalent(gac_world(Eng::kFiber), gac_world(Eng::kStepped),
                             "gac");
}

TEST(ExplorerEquivalencePin, WrnWorldStateful) {
  expect_stateful_equivalent(wrn_world(Eng::kFiber), wrn_world(Eng::kStepped),
                             "wrn");
}

TEST(ExplorerEquivalencePin, ClassicConsensusWorldStateful) {
  expect_stateful_equivalent(consensus_world(Eng::kFiber),
                             consensus_world(Eng::kStepped), "consensus");
}

}  // namespace
}  // namespace subc
