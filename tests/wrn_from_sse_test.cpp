// Tests for Algorithm 5: the linearizable 1sWRN_k from (k,k−1)-strong set
// election, registers and snapshots — Claims 22–24 and the linearizability
// theorem (Corollary 37), machine-checked via the Wing–Gong checker.
#include "subc/algorithms/wrn_from_sse.hpp"

#include <gtest/gtest.h>

#include "subc/checking/linearizability.hpp"
#include "subc/core/tasks.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

/// One full run: all k indices invoked concurrently, history recorded,
/// linearizability against OneShotWrnSpec enforced.
ExecutionBody full_run_body(int k, bool register_snapshots,
                            std::int64_t max_steps = 2'000'000) {
  return [k, register_snapshots, max_steps](SchedulePolicy& driver) {
    Runtime rt;
    WrnFromSse object(k, register_snapshots);
    History history;
    for (int p = 0; p < k; ++p) {
      rt.add_process([&, p](Context& ctx) {
        object.one_shot_wrn(ctx, p, 100 + p, &history);
      });
    }
    const auto run = rt.run(driver, max_steps);
    for (int p = 0; p < k; ++p) {
      if (run.states[static_cast<std::size_t>(p)] != ProcState::kDone) {
        throw SpecViolation("Algorithm 5 operation did not terminate");
      }
    }
    require_linearizable(OneShotWrnSpec{k}, history);
  };
}

TEST(Algorithm5, SequentialInvocationsMatchWrnSemantics) {
  Runtime rt;
  WrnFromSse object(3);
  History history;
  rt.add_process([&](Context& ctx) {
    // Sequential: results must equal the atomic 1sWRN's.
    EXPECT_EQ(object.one_shot_wrn(ctx, 0, 10, &history), kBottom);
    EXPECT_EQ(object.one_shot_wrn(ctx, 2, 30, &history), 10);
    EXPECT_EQ(object.one_shot_wrn(ctx, 1, 20, &history), 30);
  });
  RoundRobinDriver driver;
  rt.run(driver);
  require_linearizable(OneShotWrnSpec{3}, history);
}

TEST(Algorithm5, LinearizableUnderRandomSchedules) {
  for (const int k : {3, 4, 5}) {
    const auto result = RandomSweep::run(full_run_body(k, false), 800);
    EXPECT_TRUE(result.ok()) << "k=" << k << ": " << *result.violation;
  }
}

TEST(Algorithm5, LinearizableUnderBoundedExhaustiveExploration) {
  // Bounded-exhaustive: a large prefix of the schedule tree for k=3.
  const auto result = Explorer::explore(
      full_run_body(3, false), Explorer::Options{.max_executions = 40'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Algorithm5, LinearizableWithRegisterBuiltSnapshots) {
  const auto result = RandomSweep::run(full_run_body(3, true), 200);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Algorithm5, SomeInvocationReturnsBottom) {
  // Claim 23: in every full run, at least one invocation returns ⊥.
  const auto result = RandomSweep::run(
      [](SchedulePolicy& driver) {
        Runtime rt;
        WrnFromSse object(3);
        std::vector<Value> got(3, -1);
        for (int p = 0; p < 3; ++p) {
          rt.add_process([&, p](Context& ctx) {
            got[static_cast<std::size_t>(p)] =
                object.one_shot_wrn(ctx, p, 100 + p);
          });
        }
        rt.run(driver);
        if (std::none_of(got.begin(), got.end(),
                         [](Value v) { return v == kBottom; })) {
          throw SpecViolation("no invocation returned ⊥ (Claim 23)");
        }
      },
      600);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Algorithm5, SomeInvocationReturnsItsSuccessor) {
  // Claim 24: in every full run, some invocation returns its successor's
  // value.
  const auto result = RandomSweep::run(
      [](SchedulePolicy& driver) {
        Runtime rt;
        WrnFromSse object(3);
        std::vector<Value> got(3, -1);
        for (int p = 0; p < 3; ++p) {
          rt.add_process([&, p](Context& ctx) {
            got[static_cast<std::size_t>(p)] =
                object.one_shot_wrn(ctx, p, 100 + p);
          });
        }
        rt.run(driver);
        bool some_successor = false;
        for (int p = 0; p < 3; ++p) {
          if (got[static_cast<std::size_t>(p)] == 100 + ((p + 1) % 3)) {
            some_successor = true;
          }
        }
        if (!some_successor) {
          throw SpecViolation("no invocation adopted its successor (Claim 24)");
        }
      },
      600);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Algorithm5, OutputsHaveWrnShape) {
  // Claim 22: w_i returns v_{(i+1) mod k} or ⊥ — under every schedule in a
  // bounded-exhaustive prefix.
  const auto result = Explorer::explore(
      [](SchedulePolicy& driver) {
        Runtime rt;
        WrnFromSse object(3);
        std::vector<Value> got(3, -1);
        for (int p = 0; p < 3; ++p) {
          rt.add_process([&, p](Context& ctx) {
            got[static_cast<std::size_t>(p)] =
                object.one_shot_wrn(ctx, p, 100 + p);
          });
        }
        rt.run(driver);
        for (int p = 0; p < 3; ++p) {
          const Value g = got[static_cast<std::size_t>(p)];
          if (g != kBottom && g != 100 + ((p + 1) % 3)) {
            throw SpecViolation("output neither ⊥ nor successor (Claim 22)");
          }
        }
      },
      Explorer::Options{.max_executions = 40'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Algorithm5, SequentialThenConcurrentRemainder) {
  // The scenario motivating the double snapshot (the w1/w2/w3
  // counterexample in §5): early completed ops constrain later ones.
  // Scripted order: w1 announces; w2 runs fully; then w1 resumes; w3 runs.
  const auto result = RandomSweep::run(
      [](SchedulePolicy& driver) {
        Runtime rt;
        WrnFromSse object(3);
        History history;
        // Staggered invocations with different indices.
        rt.add_process([&](Context& ctx) {
          object.one_shot_wrn(ctx, 1, 101, &history);
        });
        rt.add_process([&](Context& ctx) {
          object.one_shot_wrn(ctx, 2, 102, &history);
          object.one_shot_wrn(ctx, 0, 100, &history);  // second op, later
        });
        const auto run = rt.run(driver);
        if (run.states[0] != ProcState::kDone ||
            run.states[1] != ProcState::kDone) {
          throw SpecViolation("non-termination");
        }
        require_linearizable(OneShotWrnSpec{3}, history);
      },
      600);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Algorithm5, PartialParticipationLinearizable) {
  // Only 2 of 3 indices ever invoked.
  const auto result = Explorer::explore(
      [](SchedulePolicy& driver) {
        Runtime rt;
        WrnFromSse object(3);
        History history;
        for (const int p : {0, 1}) {
          rt.add_process([&, p](Context& ctx) {
            object.one_shot_wrn(ctx, p, 100 + p, &history);
          });
        }
        rt.run(driver);
        require_linearizable(OneShotWrnSpec{3}, history);
      },
      Explorer::Options{.max_executions = 60'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
}

// -----------------------------------------------------------------------
// §5's counterexample discussion, executed: each ingredient of Algorithm 5
// is necessary. Disable it and the explorer finds a non-linearizable
// history.
// -----------------------------------------------------------------------

TEST(Algorithm5Ablation, WithoutDoorwayNotLinearizable) {
  // "using the strong set election without the doorway might result in a
  // non-linearizable implementation": w_{i+1} completes (wins, ⊥); then
  // w_i starts and also wins (two winners are allowed in (k,k−1)-strong
  // set election) — it returns ⊥ where linearizability demands v_{i+1}.
  const auto result = Explorer::explore(
      [](SchedulePolicy& driver) {
        Runtime rt;
        WrnFromSse object(3, WrnFromSse::Options{.use_doorway = false});
        History history;
        // Sequential by construction: one process, successor index first.
        rt.add_process([&](Context& ctx) {
          object.one_shot_wrn(ctx, 1, 101, &history);  // w_{i+1}
          object.one_shot_wrn(ctx, 0, 100, &history);  // w_i afterwards
        });
        rt.run(driver);
        require_linearizable(OneShotWrnSpec{3}, history);
      },
      Explorer::Options{.max_executions = 50'000});
  ASSERT_FALSE(result.ok()) << "doorway ablation went undetected";
  EXPECT_NE(result.violation->find("not linearizable"), std::string::npos);
}

// The §5 w1/w2/w3 world: k = 4, an early winner w0 closes the doorway and
// returns ⊥; then w1 (index 1), w2 (index 2) and — only after w1
// completes — w3 (index 3) interleave. Without the published-view check,
// w1 can return v2 while w2 returns v3, creating the real-time/value-flow
// cycle w1 < w3 ≤ w2 ≤ w1 the paper describes.
ExecutionBody hazard_world(WrnFromSse::Options options) {
  return [options](SchedulePolicy& driver) {
    Runtime rt;
    WrnFromSse object(4, options);
    History history;
    rt.add_process([&](Context& ctx) {
      object.one_shot_wrn(ctx, 0, 100, &history);  // w0: wins, closes door
      object.one_shot_wrn(ctx, 1, 101, &history);  // w1
      object.one_shot_wrn(ctx, 3, 103, &history);  // w3: after w1 completes
    });
    rt.add_process([&](Context& ctx) {
      object.one_shot_wrn(ctx, 2, 102, &history);  // w2, concurrent
    });
    rt.run(driver);
    require_linearizable(OneShotWrnSpec{4}, history);
  };
}

TEST(Algorithm5Ablation, WithoutViewCheckNotLinearizable) {
  const auto result = Explorer::explore(
      hazard_world(WrnFromSse::Options{.use_view_check = false}),
      Explorer::Options{.max_executions = 400'000});
  ASSERT_FALSE(result.ok()) << "view-check ablation went undetected";
  EXPECT_NE(result.violation->find("not linearizable"), std::string::npos);
}

TEST(Algorithm5Ablation, FullAlgorithmSurvivesTheSameScenarios) {
  // Identical worlds, full algorithm: the explorer finds nothing.
  const auto hazard = Explorer::explore(
      hazard_world(WrnFromSse::Options{}),
      Explorer::Options{.max_executions = 400'000});
  EXPECT_TRUE(hazard.ok()) << *hazard.violation;

  const auto sequential = Explorer::explore(
      [](SchedulePolicy& driver) {
        Runtime rt;
        WrnFromSse object(3);
        History history;
        rt.add_process([&](Context& ctx) {
          object.one_shot_wrn(ctx, 1, 101, &history);
          object.one_shot_wrn(ctx, 0, 100, &history);
        });
        rt.run(driver);
        require_linearizable(OneShotWrnSpec{3}, history);
      },
      Explorer::Options{.max_executions = 200'000});
  EXPECT_TRUE(sequential.ok()) << *sequential.violation;
}

TEST(Algorithm5, RejectsBadParameters) {
  EXPECT_THROW(WrnFromSse(2), SimError);
  Runtime rt;
  WrnFromSse object(3);
  rt.add_process([&](Context& ctx) {
    EXPECT_THROW(object.one_shot_wrn(ctx, 3, 1), SimError);
    EXPECT_THROW(object.one_shot_wrn(ctx, 0, kBottom), SimError);
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

}  // namespace
}  // namespace subc
