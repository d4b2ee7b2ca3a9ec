// Tests for Algorithm 4 (relaxed WRN from 1sWRN + counters): Claims 19–21.
#include "subc/algorithms/relaxed_wrn.hpp"

#include <gtest/gtest.h>

#include "subc/runtime/explorer.hpp"
#include "subc/runtime/runtime.hpp"

namespace subc {
namespace {

TEST(RelaxedWrn, SoleUserBehavesLikeWrn) {
  Runtime rt;
  RelaxedWrn rlx(3);
  rt.add_process([&](Context& ctx) {
    EXPECT_EQ(rlx.rlx_wrn(ctx, 0, 10), kBottom);
    EXPECT_EQ(rlx.rlx_wrn(ctx, 2, 30), 10);
    EXPECT_EQ(rlx.rlx_wrn(ctx, 1, 20), 30);
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

TEST(RelaxedWrn, NeverHangsUnderIndexCollisions) {
  // Claim 19/20: the inner 1sWRN is used legally — so no process ever hangs,
  // even when several processes use the same index, under every schedule.
  const auto result = Explorer::explore([](SchedulePolicy& driver) {
    Runtime rt;
    RelaxedWrn rlx(3);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        rlx.rlx_wrn(ctx, /*index=*/0, /*v=*/100 + p);  // all collide
      });
    }
    const auto run = rt.run(driver);
    for (int p = 0; p < 3; ++p) {
      if (run.states[static_cast<std::size_t>(p)] != ProcState::kDone) {
        throw SpecViolation("RlxWRN hung under collision");
      }
    }
  });
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

TEST(RelaxedWrn, CollidingInvocationsMayAllGetBottom) {
  // With a collision, at most one process reaches the inner object; the
  // others get ⊥. Under every schedule, count inner successes.
  const auto result = Explorer::explore([](SchedulePolicy& driver) {
    Runtime rt;
    RelaxedWrn rlx(3);
    std::vector<Value> got(2, -1);
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&, p](Context& ctx) {
        got[static_cast<std::size_t>(p)] = rlx.rlx_wrn(ctx, 0, 100 + p);
      });
    }
    rt.run(driver);
    // Both used index 0; at most one can have read counter==1, and the
    // first index-0 writer to the inner object always reads ⊥ from slot 1.
    for (const Value g : got) {
      if (g != kBottom) {
        throw SpecViolation("colliding RlxWRN returned a value");
      }
    }
  });
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(RelaxedWrn, DistinctIndicesAllReachInner) {
  // Claim 21: k processes with k distinct indices all invoke the inner
  // 1sWRN — so the outputs must equal those of a genuine WRN_k run: the
  // successor's value or ⊥, with at most k−1 of them ⊥... at least one
  // non-⊥ unless schedules allow; we check the WRN-shape of each output.
  const int k = 3;
  const auto result = Explorer::explore([&](SchedulePolicy& driver) {
    Runtime rt;
    RelaxedWrn rlx(k);
    std::vector<Value> got(static_cast<std::size_t>(k), -1);
    for (int p = 0; p < k; ++p) {
      rt.add_process([&, p](Context& ctx) {
        got[static_cast<std::size_t>(p)] = rlx.rlx_wrn(ctx, p, 100 + p);
      });
    }
    rt.run(driver);
    int bottoms = 0;
    for (int p = 0; p < k; ++p) {
      const Value g = got[static_cast<std::size_t>(p)];
      if (g == kBottom) {
        ++bottoms;
      } else if (g != 100 + ((p + 1) % k)) {
        throw SpecViolation("RlxWRN returned non-successor value");
      }
    }
    // The last process to reach the inner object must see its successor's
    // value, so not everything can be ⊥.
    if (bottoms == k) {
      throw SpecViolation("all distinct-index invocations returned ⊥");
    }
  });
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

TEST(RelaxedWrn, MixedCollisionAndDistinctIndices) {
  // Two processes collide on index 0, one uses index 2 (whose successor is
  // slot 0). Nothing hangs; outputs have WRN shape.
  const auto result = Explorer::explore([](SchedulePolicy& driver) {
    Runtime rt;
    RelaxedWrn rlx(3);
    std::vector<Value> got(3, -1);
    rt.add_process([&](Context& ctx) { got[0] = rlx.rlx_wrn(ctx, 0, 10); });
    rt.add_process([&](Context& ctx) { got[1] = rlx.rlx_wrn(ctx, 0, 11); });
    rt.add_process([&](Context& ctx) { got[2] = rlx.rlx_wrn(ctx, 2, 30); });
    const auto run = rt.run(driver);
    for (int p = 0; p < 3; ++p) {
      if (run.states[static_cast<std::size_t>(p)] != ProcState::kDone) {
        throw SpecViolation("hung");
      }
    }
    if (got[2] != kBottom && got[2] != 10 && got[2] != 11) {
      throw SpecViolation("index-2 output not a slot-0 value or ⊥");
    }
  });
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

TEST(RelaxedWrn, RejectsBadArguments) {
  EXPECT_THROW(RelaxedWrn(1), SimError);
  Runtime rt;
  RelaxedWrn rlx(3);
  rt.add_process([&](Context& ctx) {
    EXPECT_THROW(rlx.rlx_wrn(ctx, 3, 1), SimError);
    EXPECT_THROW(rlx.rlx_wrn(ctx, 0, kBottom), SimError);
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

}  // namespace
}  // namespace subc
