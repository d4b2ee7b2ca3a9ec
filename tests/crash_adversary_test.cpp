// The CrashAdversary policy decorator: planned and random crash injection
// composed over arbitrary inner policies, exercised against Algorithm 5's
// 1sWRN — which stays linearizable under f crashes, while a deliberately
// weakened variant is caught by the very same adversary.
#include <gtest/gtest.h>

#include "subc/algorithms/wrn_from_sse.hpp"
#include "subc/checking/linearizability.hpp"
#include "subc/objects/register.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/policy.hpp"

namespace subc {
namespace {

TEST(CrashAdversary, PlanCrashesVictimAfterItsOwnSteps) {
  // The plan counts the *victim's* steps, not global ones: victim 1 must
  // die having taken exactly 2 steps no matter how the inner policy
  // interleaves.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    Runtime rt;
    RegisterArray<> regs(3, kBottom);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        for (int i = 0; i < 6; ++i) {
          regs[p].write(ctx, i);
        }
      });
    }
    RandomDriver inner(seed);
    CrashAdversary adversary(inner, {CrashAdversary::CrashPoint{1, 2}});
    const auto result = rt.run(adversary);
    EXPECT_EQ(result.states[1], ProcState::kCrashed) << "seed=" << seed;
    EXPECT_EQ(rt.steps_of(1), 2) << "seed=" << seed;
    EXPECT_EQ(adversary.crashes_injected(), 1);
    EXPECT_EQ(result.states[0], ProcState::kDone);
    EXPECT_EQ(result.states[2], ProcState::kDone);
  }
}

TEST(CrashAdversary, RandomModeRespectsTheBudget) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Runtime rt;
    RegisterArray<> regs(4, kBottom);
    for (int p = 0; p < 4; ++p) {
      rt.add_process([&, p](Context& ctx) {
        for (int i = 0; i < 5; ++i) {
          regs[p].write(ctx, i);
        }
      });
    }
    RandomDriver inner(seed);
    CrashAdversary adversary(inner, /*seed=*/seed * 31 + 7, /*f=*/2,
                             /*crash_prob=*/0.05);
    const auto result = rt.run(adversary);
    EXPECT_LE(adversary.crashes_injected(), 2) << "seed=" << seed;
    int crashed = 0;
    for (const ProcState s : result.states) {
      if (s == ProcState::kCrashed) {
        ++crashed;
      } else {
        EXPECT_EQ(s, ProcState::kDone);
      }
    }
    EXPECT_EQ(crashed, adversary.crashes_injected()) << "seed=" << seed;
  }
}

TEST(CrashAdversary, BeginRunResetsTheBudget) {
  // The same adversary object drives consecutive runs; each gets a fresh
  // crash budget (Runtime::run calls begin_run).
  RandomDriver inner(9);
  CrashAdversary adversary(inner, {CrashAdversary::CrashPoint{0, 1}});
  for (int round = 0; round < 3; ++round) {
    Runtime rt;
    RegisterArray<> regs(2, kBottom);
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&, p](Context& ctx) {
        for (int i = 0; i < 3; ++i) {
          regs[p].write(ctx, i);
        }
      });
    }
    const auto result = rt.run(adversary);
    EXPECT_EQ(result.states[0], ProcState::kCrashed) << "round=" << round;
    EXPECT_EQ(adversary.crashes_injected(), 1) << "round=" << round;
  }
}

// ---------------------------------------------------------------------------
// Algorithm 5 under the crash adversary. The full construction stays
// linearizable whatever the adversary does (crashed operations are pending;
// the checker may linearize or drop them). The doorway-ablated variant is
// caught by the very same adversary/seed sweep: after w_{i+1} completes, a
// fresh w_i can still win the strong set election (two winners are legal)
// and return ⊥ where linearizability demands v_{i+1}.
// ---------------------------------------------------------------------------

/// The §5 doorway scenario plus a concurrent crash target: p0 runs w1 then
/// w0 back to back; p1 runs w2 concurrently and is killed mid-operation by
/// the adversary's plan.
ExecutionBody doorway_scenario(WrnFromSse::Options options, History* history) {
  return [options, history](SchedulePolicy& driver) {
    Runtime rt;
    WrnFromSse object(3, options);
    rt.add_process([&](Context& ctx) {
      object.one_shot_wrn(ctx, 1, 101, history);  // w_{i+1} first...
      object.one_shot_wrn(ctx, 0, 100, history);  // ...then w_i
    });
    rt.add_process([&](Context& ctx) {
      object.one_shot_wrn(ctx, 2, 102, history);
    });
    rt.run(driver);
  };
}

TEST(CrashAdversary, Algorithm5LinearizableUnderPlannedCrashes) {
  // Mirrors the coverage the old hand-rolled crash harness gave Algorithm 5,
  // now via the composable adversary: every (victim, crash point, seed)
  // cell leaves survivors done and the recorded history linearizable.
  const int k = 3;
  for (int victim = 0; victim < k; ++victim) {
    for (std::int64_t after = 1; after <= 5; ++after) {
      for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        Runtime rt;
        WrnFromSse object(k);
        History history;
        for (int p = 0; p < k; ++p) {
          rt.add_process([&, p](Context& ctx) {
            object.one_shot_wrn(ctx, p, 100 + p, &history);
          });
        }
        RandomDriver inner(seed);
        CrashAdversary adversary(inner,
                                 {CrashAdversary::CrashPoint{victim, after}});
        const auto result = rt.run(adversary);
        for (int p = 0; p < k; ++p) {
          if (p != victim) {
            ASSERT_EQ(result.states[static_cast<std::size_t>(p)],
                      ProcState::kDone)
                << "survivor blocked: victim=" << victim << " after=" << after
                << " seed=" << seed;
          }
        }
        require_linearizable(OneShotWrnSpec{k}, history);
      }
    }
  }
}

TEST(CrashAdversary, Algorithm5LinearizableUnderRandomCrashes) {
  // Random fault model, f = 2 of 4: whatever subset the adversary kills,
  // survivors terminate and the history stays linearizable.
  const int k = 4;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Runtime rt;
    WrnFromSse object(k);
    History history;
    for (int p = 0; p < k; ++p) {
      rt.add_process([&, p](Context& ctx) {
        object.one_shot_wrn(ctx, p, 100 + p, &history);
      });
    }
    RandomDriver inner(seed);
    CrashAdversary adversary(inner, /*seed=*/seed * 101 + 13, /*f=*/2,
                             /*crash_prob=*/0.02);
    const auto result = rt.run(adversary);
    EXPECT_LE(adversary.crashes_injected(), 2);
    for (int p = 0; p < k; ++p) {
      if (result.states[static_cast<std::size_t>(p)] != ProcState::kCrashed) {
        ASSERT_EQ(result.states[static_cast<std::size_t>(p)], ProcState::kDone)
            << "survivor blocked: seed=" << seed;
      }
    }
    require_linearizable(OneShotWrnSpec{k}, history);
  }
}

TEST(CrashAdversary, WeakenedVariantCaughtFullAlgorithmSurvives) {
  // The capability half: the same adversary sweep distinguishes the real
  // Algorithm 5 from its doorway-ablated variant. With the doorway removed
  // the sequential w1-then-w0 pattern can yield two election winners — a
  // non-linearizable ⊥/⊥ outcome — even while p1's concurrent w2 is being
  // crashed mid-operation. The full algorithm shrugs off every cell.
  constexpr std::uint64_t kSeeds = 80;
  bool weakened_caught = false;
  for (std::uint64_t seed = 1; seed <= kSeeds && !weakened_caught; ++seed) {
    History history;
    RandomDriver inner(seed);
    CrashAdversary adversary(inner, {CrashAdversary::CrashPoint{1, 3}});
    doorway_scenario(WrnFromSse::Options{.use_doorway = false}, &history)(
        adversary);
    const auto verdict = check_linearizable(OneShotWrnSpec{3},
                                            history.entries());
    if (!verdict.linearizable) {
      weakened_caught = true;
    }
  }
  EXPECT_TRUE(weakened_caught)
      << "no seed in the sweep exposed the doorway ablation under crashes";

  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    History history;
    RandomDriver inner(seed);
    CrashAdversary adversary(inner, {CrashAdversary::CrashPoint{1, 3}});
    doorway_scenario(WrnFromSse::Options{}, &history)(adversary);
    require_linearizable(OneShotWrnSpec{3}, history);
  }
}

TEST(CrashAdversary, ComposesOverPct) {
  // The decorator is policy-agnostic: PCT inside, crashes outside. The run
  // stays deterministic per seed, so assert two identical back-to-back runs.
  const auto run_once = [](std::uint64_t seed) {
    Runtime rt;
    RegisterArray<> regs(3, kBottom);
    History history;
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        const auto h = history.invoke(p, {p});
        regs[p].write(ctx, p);
        const Value seen = regs[(p + 1) % 3].read(ctx);
        history.respond(h, {seen});
      });
    }
    PctPolicy inner(seed, /*depth=*/2, /*horizon=*/32);
    CrashAdversary adversary(inner, {CrashAdversary::CrashPoint{2, 1}});
    rt.run(adversary);
    return history.dump();
  };
  for (const std::uint64_t seed : {4ULL, 17ULL}) {
    EXPECT_EQ(run_once(seed), run_once(seed)) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace subc
