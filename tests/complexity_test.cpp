// Step-complexity contracts: the papers' constructions have crisp
// shared-memory step counts; these tests pin them as upper bounds so a
// regression that silently adds steps (or an accidental unbounded loop)
// fails loudly. Also: determinism contracts — identical seeds produce
// identical executions.
#include <gtest/gtest.h>

#include "subc/algorithms/relaxed_wrn.hpp"
#include "subc/checking/linearizability.hpp"
#include "subc/algorithms/wrn_from_sse.hpp"
#include "subc/algorithms/wrn_set_consensus.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

TEST(StepComplexity, Algorithm2IsOneStepPerProcess) {
  // Algorithm 2 is a single WRN invocation: exactly 1 step per process,
  // under every schedule.
  const int k = 4;
  const auto result = Explorer::explore([&](SchedulePolicy& driver) {
    Runtime rt;
    WrnSetConsensus algorithm(k);
    for (int p = 0; p < k; ++p) {
      rt.add_process(
          [&, p](Context& ctx) { ctx.decide(algorithm.propose(ctx, p, p)); });
    }
    rt.run(driver);
    for (int p = 0; p < k; ++p) {
      if (rt.steps_of(p) != 1) {
        throw SpecViolation("Algorithm 2 took more than one step");
      }
    }
  });
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

TEST(StepComplexity, RelaxedWrnIsAtMostThreeSteps) {
  // Algorithm 4: increment + read + (maybe) inner WRN = ≤ 3 steps.
  const auto result = Explorer::explore([](SchedulePolicy& driver) {
    Runtime rt;
    RelaxedWrn rlx(3);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) { rlx.rlx_wrn(ctx, p % 2, 10 + p); });
    }
    rt.run(driver);
    for (int p = 0; p < 3; ++p) {
      if (rt.steps_of(p) > 3) {
        throw SpecViolation("RlxWRN exceeded 3 steps");
      }
    }
  });
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

TEST(StepComplexity, Algorithm5IsAtMostSevenStepsWithAtomicSnapshots) {
  // Announce + doorway read + doorway write + election + Snapshot(R) +
  // publish O[i] + Snapshot(O) = ≤ 7 steps per operation.
  const int k = 4;
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        WrnFromSse object(k);
        for (int p = 0; p < k; ++p) {
          rt.add_process(
              [&, p](Context& ctx) { object.one_shot_wrn(ctx, p, 100 + p); });
        }
        rt.run(driver);
        for (int p = 0; p < k; ++p) {
          if (rt.steps_of(p) > 7) {
            throw SpecViolation("Algorithm 5 exceeded 7 steps: " +
                                std::to_string(rt.steps_of(p)));
          }
        }
      },
      2000);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Determinism, SameSeedSameDecisionsAcrossComplexWorlds) {
  const auto run_once = [](std::uint64_t seed) {
    Runtime rt;
    WrnFromSse object(4);
    std::vector<Value> outputs(4, kBottom);
    for (int p = 0; p < 4; ++p) {
      rt.add_process([&, p](Context& ctx) {
        outputs[static_cast<std::size_t>(p)] =
            object.one_shot_wrn(ctx, p, 100 + p);
      });
    }
    RandomDriver driver(seed);
    rt.run(driver);
    return outputs;
  };
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    EXPECT_EQ(run_once(seed), run_once(seed)) << "seed " << seed;
  }
}

TEST(Determinism, ExplorerReplayReproducesComplexViolations) {
  // Build a world that violates under some schedule (the view-check
  // ablation); the returned trace must deterministically reproduce it.
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    WrnFromSse object(4, WrnFromSse::Options{.use_view_check = false});
    History history;
    rt.add_process([&](Context& ctx) {
      object.one_shot_wrn(ctx, 0, 100, &history);
      object.one_shot_wrn(ctx, 1, 101, &history);
      object.one_shot_wrn(ctx, 3, 103, &history);
    });
    rt.add_process([&](Context& ctx) {
      object.one_shot_wrn(ctx, 2, 102, &history);
    });
    rt.run(driver);
    require_linearizable(OneShotWrnSpec{4}, history);
  };
  const auto result =
      Explorer::explore(body, Explorer::Options{.max_executions = 400'000});
  ASSERT_FALSE(result.ok());
  for (int replay = 0; replay < 3; ++replay) {
    EXPECT_THROW(Explorer::replay(body, result.violating_trace),
                 SpecViolation);
  }
}

}  // namespace
}  // namespace subc
