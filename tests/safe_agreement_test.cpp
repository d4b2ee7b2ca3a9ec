// Tests for safe agreement (the BG-simulation engine): agreement, validity,
// wait-freedom of propose, the blocking condition, and exhaustive checks.
#include "subc/algorithms/safe_agreement.hpp"

#include <gtest/gtest.h>

#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

TEST(SafeAgreement, SoloProposerResolvesOwnValue) {
  Runtime rt;
  SafeAgreement sa(3);
  rt.add_process([&](Context& ctx) {
    sa.propose(ctx, 0, 42);
    EXPECT_EQ(sa.await(ctx), 42);
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

TEST(SafeAgreement, AgreementAndValidityUnderAllSchedules) {
  // 3 proposers, each followed by a single resolve probe: every non-⊥
  // probe must return the same proposed value — exhaustively. (A spinning
  // await cannot be explored exhaustively: the DFS legitimately finds the
  // starvation schedule where the awaiter runs alone forever, which is
  // exactly safe agreement's blocking condition.)
  const auto result = Explorer::explore(
      [](SchedulePolicy& driver) {
        Runtime rt;
        SafeAgreement sa(3);
        std::vector<Value> resolved(3, kBottom);
        for (int p = 0; p < 3; ++p) {
          rt.add_process([&, p](Context& ctx) {
            sa.propose(ctx, p, 10 + p);
            resolved[static_cast<std::size_t>(p)] = sa.resolve(ctx);
          });
        }
        rt.run(driver);
        Value agreed = kBottom;
        for (int p = 0; p < 3; ++p) {
          const Value v = resolved[static_cast<std::size_t>(p)];
          if (v == kBottom) {
            continue;
          }
          if (v < 10 || v > 12) {
            throw SpecViolation("resolved a never-proposed value");
          }
          if (agreed == kBottom) {
            agreed = v;
          } else if (v != agreed) {
            throw SpecViolation("safe agreement disagreement");
          }
        }
      },
      Explorer::Options{.max_executions = 500'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

TEST(SafeAgreement, AwaitTerminatesUnderRandomSchedules) {
  // With a fair-ish (random) adversary and no crashes, await terminates and
  // everyone agrees on a proposed value.
  const auto result = RandomSweep::run(
      [](SchedulePolicy& driver) {
        Runtime rt;
        SafeAgreement sa(3);
        std::vector<Value> resolved(3, kBottom);
        for (int p = 0; p < 3; ++p) {
          rt.add_process([&, p](Context& ctx) {
            sa.propose(ctx, p, 10 + p);
            resolved[static_cast<std::size_t>(p)] = sa.await(ctx);
          });
        }
        rt.run(driver);
        for (int p = 0; p < 3; ++p) {
          const Value v = resolved[static_cast<std::size_t>(p)];
          if (v < 10 || v > 12 || v != resolved[0]) {
            throw SpecViolation("await agreement violated");
          }
        }
      },
      1000);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(SafeAgreement, ResolveIsBottomWhileProposerInWindow) {
  // Scripted: p0 enters the unsafe window (first update + scan done, final
  // update pending); p1's resolve must return ⊥.
  Runtime rt;
  SafeAgreement sa(2);
  std::vector<Value> observed;
  rt.add_process([&](Context& ctx) { sa.propose(ctx, 0, 7); });  // 3 steps
  rt.add_process([&](Context& ctx) {
    observed.push_back(sa.resolve(ctx));  // while p0 mid-window
    observed.push_back(sa.resolve(ctx));  // after p0 finished
  });
  // p0 takes 2 steps (enter window), p1 resolves, p0 finishes, p1 resolves.
  ScriptedDriver driver({0, 0, 1, 0, 1});
  rt.run(driver);
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], kBottom);
  EXPECT_EQ(observed[1], 7);
}

TEST(SafeAgreement, CrashInWindowBlocksResolution) {
  // The BG blocking condition: a proposer crashes between its two updates;
  // resolve stays ⊥ forever (await exhausts its budget).
  Runtime rt;
  SafeAgreement sa(2);
  rt.add_process([&](Context& ctx) {
    sa.propose(ctx, 0, 7);  // will be crashed mid-window by the schedule
  });
  bool await_failed = false;
  rt.add_process([&](Context& ctx) {
    sa.propose(ctx, 1, 8);
    try {
      sa.await(ctx, 50);
    } catch (const SimError&) {
      await_failed = true;
    }
  });
  // Let p0 take exactly 2 steps (write level 1 + scan), then crash it.
  class CrashDriver final : public SchedulePolicy {
   public:
    explicit CrashDriver(Runtime* rt) : rt_(rt) {}
    std::size_t pick(std::span<const int> enabled,
                     std::span<const Access> /*footprints*/ = {}) override {
      if (steps_for_p0_ < 2) {
        ++steps_for_p0_;
        return 0;  // p0 first twice (it is enabled first)
      }
      rt_->crash(0);
      // After crashing p0 the enabled list may shrink; pick p1.
      for (std::size_t i = 0; i < enabled.size(); ++i) {
        if (enabled[i] == 1) {
          return i;
        }
      }
      return 0;
    }
    std::uint32_t choose(std::uint32_t) override { return 0; }

   private:
    Runtime* rt_;
    int steps_for_p0_ = 0;
  };
  CrashDriver driver(&rt);
  rt.run(driver);
  EXPECT_TRUE(await_failed);
}

TEST(SafeAgreement, FrozenAfterFirstResolution) {
  // Once a resolve succeeded, later proposers retreat and the agreed value
  // never changes.
  Runtime rt;
  SafeAgreement sa(3);
  rt.add_process([&](Context& ctx) {
    sa.propose(ctx, 0, 100);
    EXPECT_EQ(sa.await(ctx), 100);
    // A late proposer arrives only after resolution: it must retreat.
    sa.propose(ctx, 1, 200);
    EXPECT_EQ(sa.await(ctx), 100);
    EXPECT_EQ(sa.resolve(ctx), 100);
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

TEST(SafeAgreement, ConcurrentLateProposerCannotFlipAgreement) {
  // Exhaustive: p0 proposes and resolves once; p1 proposes concurrently or
  // later. Whatever both eventually resolve must match and be a proposal.
  const auto result = Explorer::explore(
      [](SchedulePolicy& driver) {
        Runtime rt;
        SafeAgreement sa(2);
        std::vector<Value> probes;
        rt.add_process([&](Context& ctx) {
          sa.propose(ctx, 0, 100);
          probes.push_back(sa.resolve(ctx));
          probes.push_back(sa.resolve(ctx));
        });
        rt.add_process([&](Context& ctx) {
          sa.propose(ctx, 1, 200);
          probes.push_back(sa.resolve(ctx));
        });
        rt.run(driver);
        Value agreed = kBottom;
        for (const Value v : probes) {
          if (v == kBottom) {
            continue;
          }
          if (v != 100 && v != 200) {
            throw SpecViolation("non-proposal resolved");
          }
          if (agreed == kBottom) {
            agreed = v;
          } else if (agreed != v) {
            throw SpecViolation("agreement flipped: " + to_string(agreed) +
                                " then " + to_string(v));
          }
        }
      },
      Explorer::Options{.max_executions = 300'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

TEST(SafeAgreement, ParameterValidation) {
  EXPECT_THROW(SafeAgreement(0), SimError);
  Runtime rt;
  SafeAgreement sa(2);
  rt.add_process([&](Context& ctx) {
    EXPECT_THROW(sa.propose(ctx, 0, kBottom), SimError);
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

}  // namespace
}  // namespace subc
