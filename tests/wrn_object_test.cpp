// Unit tests for the WRN_k and 1sWRN_k objects (§3, Algorithm 1) and the
// OneShotWrnSpec sequential specification.
#include "subc/objects/wrn.hpp"

#include <gtest/gtest.h>

#include "subc/runtime/explorer.hpp"
#include "subc/runtime/runtime.hpp"

namespace subc {
namespace {

template <class Body>
Runtime::RunResult solo(Body body) {
  Runtime rt;
  rt.add_process([&](Context& ctx) { body(ctx); });
  RoundRobinDriver driver;
  return rt.run(driver);
}

TEST(WrnObject, SequentialSemanticsMatchAlgorithm1) {
  WrnObject wrn(3);
  solo([&](Context& ctx) {
    // Fresh object: every slot ⊥.
    EXPECT_EQ(wrn.wrn(ctx, 0, 10), kBottom);  // reads slot 1
    EXPECT_EQ(wrn.wrn(ctx, 2, 30), 10);       // reads slot 0
    EXPECT_EQ(wrn.wrn(ctx, 1, 20), 30);       // reads slot 2
    // Overwrites are visible: slot 0 rewritten, slot 2 reads it.
    EXPECT_EQ(wrn.wrn(ctx, 0, 11), 20);
    EXPECT_EQ(wrn.wrn(ctx, 2, 31), 11);
  });
}

TEST(WrnObject, WrapAroundIndexReadsSlotZero) {
  WrnObject wrn(4);
  solo([&](Context& ctx) {
    wrn.wrn(ctx, 0, 100);
    EXPECT_EQ(wrn.wrn(ctx, 3, 400), 100);  // (3+1) mod 4 = 0
  });
}

TEST(WrnObject, RejectsIllegalArguments) {
  EXPECT_THROW(WrnObject(1), SimError);
  WrnObject wrn(3);
  solo([&](Context& ctx) {
    EXPECT_THROW(wrn.wrn(ctx, -1, 1), SimError);
    EXPECT_THROW(wrn.wrn(ctx, 3, 1), SimError);
    EXPECT_THROW(wrn.wrn(ctx, 0, kBottom), SimError);
  });
}

TEST(WrnObject, Wrn2BehavesLikeWriteMineReadYours) {
  // WRN_2 is SWAP (§3): writing slot b and reading slot 1−b.
  WrnObject wrn(2);
  solo([&](Context& ctx) {
    EXPECT_EQ(wrn.wrn(ctx, 0, 5), kBottom);
    EXPECT_EQ(wrn.wrn(ctx, 1, 6), 5);
    EXPECT_EQ(wrn.wrn(ctx, 0, 7), 6);
  });
}

TEST(OneShotWrn, SingleUsePerIndexWorks) {
  OneShotWrnObject wrn(3);
  solo([&](Context& ctx) {
    EXPECT_EQ(wrn.wrn(ctx, 1, 21), kBottom);
    EXPECT_EQ(wrn.wrn(ctx, 0, 11), 21);
    EXPECT_EQ(wrn.wrn(ctx, 2, 31), 11);
  });
}

TEST(OneShotWrn, IndexReuseHangsUndetectably) {
  Runtime rt;
  OneShotWrnObject wrn(3);
  rt.add_process([&](Context& ctx) {
    wrn.wrn(ctx, 0, 1);
    wrn.wrn(ctx, 0, 2);  // illegal reuse: hangs here
    FAIL() << "must not be reached";
  });
  rt.add_process([&](Context& ctx) { wrn.wrn(ctx, 1, 3); });
  RoundRobinDriver driver;
  const auto result = rt.run(driver);
  EXPECT_EQ(result.states[0], ProcState::kHung);
  EXPECT_EQ(result.states[1], ProcState::kDone);
  EXPECT_FALSE(result.quiescent);
}

TEST(OneShotWrn, ReuseByDifferentProcessAlsoHangs) {
  Runtime rt;
  OneShotWrnObject wrn(3);
  rt.add_process([&](Context& ctx) { wrn.wrn(ctx, 0, 1); });
  rt.add_process([&](Context& ctx) { wrn.wrn(ctx, 0, 2); });
  ScriptedDriver driver({0, 1});
  const auto result = rt.run(driver);
  EXPECT_EQ(result.states[0], ProcState::kDone);
  EXPECT_EQ(result.states[1], ProcState::kHung);
}

TEST(OneShotWrnSpec, AppliesAlgorithm1Semantics) {
  const OneShotWrnSpec spec{3};
  auto state = spec.initial();
  std::vector<Value> response;
  ASSERT_TRUE(spec.apply(state, {0, 10}, response));
  EXPECT_EQ(response, (std::vector<Value>{kBottom}));
  ASSERT_TRUE(spec.apply(state, {2, 30}, response));
  EXPECT_EQ(response, (std::vector<Value>{10}));
  // Index reuse is illegal.
  EXPECT_FALSE(spec.apply(state, {0, 99}, response));
  ASSERT_TRUE(spec.apply(state, {1, 20}, response));
  EXPECT_EQ(response, (std::vector<Value>{30}));
}

TEST(OneShotWrnSpec, KeyDistinguishesStates) {
  const OneShotWrnSpec spec{3};
  auto a = spec.initial();
  auto b = spec.initial();
  std::vector<Value> response;
  spec.apply(a, {0, 1}, response);
  EXPECT_NE(spec.key(a), spec.key(b));
  spec.apply(b, {0, 1}, response);
  EXPECT_EQ(spec.key(a), spec.key(b));
}

// Property sweep: under every schedule, concurrent distinct-index 1sWRN
// invocations return either ⊥ or the value written at the successor index.
class OneShotWrnProperty : public ::testing::TestWithParam<int> {};

TEST_P(OneShotWrnProperty, ReturnsSuccessorValueOrBottom) {
  const int k = GetParam();
  const auto result = Explorer::explore(
      [k](SchedulePolicy& driver) {
        Runtime rt;
        OneShotWrnObject wrn(k);
        std::vector<Value> got(static_cast<std::size_t>(k), kBottom - 0);
        for (int p = 0; p < k; ++p) {
          rt.add_process([&, p](Context& ctx) {
            got[static_cast<std::size_t>(p)] = wrn.wrn(ctx, p, 100 + p);
          });
        }
        rt.run(driver);
        for (int p = 0; p < k; ++p) {
          const Value g = got[static_cast<std::size_t>(p)];
          const Value successor = 100 + ((p + 1) % k);
          if (g != kBottom && g != successor) {
            throw SpecViolation("WRN returned neither ⊥ nor successor");
          }
        }
      },
      Explorer::Options{.max_executions = 200'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
  if (k <= 4) {
    EXPECT_TRUE(result.complete);
  }
}

INSTANTIATE_TEST_SUITE_P(AllK, OneShotWrnProperty, ::testing::Values(3, 4, 5));

}  // namespace
}  // namespace subc
