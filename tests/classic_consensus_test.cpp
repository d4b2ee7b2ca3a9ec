// Tests for the classic consensus constructions: the consensus-number
// positive facts (2-consensus from swap / T&S / fetch&add / queue;
// n-consensus from n-consensus objects and from O_{n,k}), plus the WRN
// boundary — the same protocol solves 2-consensus on WRN_2 and breaks on
// WRN_k, k ≥ 3.
#include "subc/algorithms/classic_consensus.hpp"

#include <gtest/gtest.h>

#include "subc/core/consensus_number.hpp"
#include "subc/objects/compare_and_swap.hpp"
#include "subc/objects/sticky_register.hpp"
#include "subc/core/tasks.hpp"
#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

const std::vector<std::vector<Value>> kTwoProcInputs{
    {0, 1}, {1, 0}, {5, 5}, {3, 9}};

TEST(ClassicConsensus, TwoFromSwap) {
  const auto check = check_consensus_algorithm(
      [](SchedulePolicy& driver, const std::vector<Value>& inputs) {
        Runtime rt;
        TwoConsensusShared shared;
        SwapRegister swap(kBottom);
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(consensus2_from_swap(
                ctx, shared, swap, p, inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver);
        check_all_done_and_decided(run);
        check_validity(inputs, run.decisions);
        check_agreement(run.decisions);
      },
      kTwoProcInputs);
  EXPECT_TRUE(check.ok()) << *check.violation;
  EXPECT_TRUE(check.exhaustive);
}

TEST(ClassicConsensus, TwoFromTestAndSet) {
  const auto check = check_consensus_algorithm(
      [](SchedulePolicy& driver, const std::vector<Value>& inputs) {
        Runtime rt;
        TwoConsensusShared shared;
        TestAndSet tas;
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(consensus2_from_tas(
                ctx, shared, tas, p, inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver);
        check_all_done_and_decided(run);
        check_validity(inputs, run.decisions);
        check_agreement(run.decisions);
      },
      kTwoProcInputs);
  EXPECT_TRUE(check.ok()) << *check.violation;
}

TEST(ClassicConsensus, TwoFromFetchAdd) {
  const auto check = check_consensus_algorithm(
      [](SchedulePolicy& driver, const std::vector<Value>& inputs) {
        Runtime rt;
        TwoConsensusShared shared;
        FetchAdd fa(0);
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(consensus2_from_fetch_add(
                ctx, shared, fa, p, inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver);
        check_all_done_and_decided(run);
        check_validity(inputs, run.decisions);
        check_agreement(run.decisions);
      },
      kTwoProcInputs);
  EXPECT_TRUE(check.ok()) << *check.violation;
}

TEST(ClassicConsensus, TwoFromQueue) {
  const auto check = check_consensus_algorithm(
      [](SchedulePolicy& driver, const std::vector<Value>& inputs) {
        Runtime rt;
        TwoConsensusShared shared;
        FifoQueue queue{0};  // pre-loaded winner token
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(consensus2_from_queue(
                ctx, shared, queue, p, inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver);
        check_all_done_and_decided(run);
        check_validity(inputs, run.decisions);
        check_agreement(run.decisions);
      },
      kTwoProcInputs);
  EXPECT_TRUE(check.ok()) << *check.violation;
}

TEST(ClassicConsensus, SoloProcessDecidesOwnValue) {
  Runtime rt;
  TwoConsensusShared shared;
  SwapRegister swap(kBottom);
  Value decided = kBottom;
  rt.add_process([&](Context& ctx) {
    decided = consensus2_from_swap(ctx, shared, swap, 0, 7);
  });
  RoundRobinDriver driver;
  rt.run(driver);
  EXPECT_EQ(decided, 7);
}

class ConsensusObjectSweep : public ::testing::TestWithParam<int> {};

TEST_P(ConsensusObjectSweep, NConsensusFromObject) {
  const int n = GetParam();
  std::vector<Value> inputs;
  for (int i = 0; i < n; ++i) {
    inputs.push_back(50 + i);
  }
  const auto check = check_consensus_algorithm(
      [n](SchedulePolicy& driver, const std::vector<Value>& in) {
        Runtime rt;
        ConsensusObject object(n);
        for (int p = 0; p < n; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(consensus_from_object(
                ctx, object, in[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver);
        check_all_done_and_decided(run);
        check_validity(in, run.decisions);
        check_agreement(run.decisions);
      },
      {inputs});
  EXPECT_TRUE(check.ok()) << *check.violation;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConsensusObjectSweep,
                         ::testing::Values(1, 2, 3, 5, 8));

struct OnkCase {
  int n;
  int k;
};

class OnkConsensusSweep : public ::testing::TestWithParam<OnkCase> {};

TEST_P(OnkConsensusSweep, NConsensusFromOnk) {
  const auto [n, k] = GetParam();
  std::vector<Value> inputs;
  for (int i = 0; i < n; ++i) {
    inputs.push_back(60 + i);
  }
  const auto check = check_consensus_algorithm(
      [n = n, k = k](SchedulePolicy& driver, const std::vector<Value>& in) {
        Runtime rt;
        OnkObject object(n, k);
        for (int p = 0; p < n; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(consensus_from_onk(
                ctx, object, in[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver);
        check_all_done_and_decided(run);
        check_validity(in, run.decisions);
        check_agreement(run.decisions);
      },
      {inputs});
  EXPECT_TRUE(check.ok()) << *check.violation;
}

INSTANTIATE_TEST_SUITE_P(Sizes, OnkConsensusSweep,
                         ::testing::Values(OnkCase{2, 1}, OnkCase{2, 3},
                                           OnkCase{3, 2}, OnkCase{4, 2},
                                           OnkCase{5, 3}));

TEST(WrnBoundary, Wrn2SolvesTwoConsensus) {
  // WRN_2 is SWAP: the write-mine-read-next protocol is a correct
  // 2-consensus algorithm — exhaustively validated.
  const auto check = check_consensus_algorithm(
      [](SchedulePolicy& driver, const std::vector<Value>& inputs) {
        Runtime rt;
        WrnObject wrn(2);
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(consensus2_attempt_from_wrn(
                ctx, wrn, p, inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver);
        check_all_done_and_decided(run);
        check_validity(inputs, run.decisions);
        check_agreement(run.decisions);
      },
      kTwoProcInputs);
  EXPECT_TRUE(check.ok()) << *check.violation;
  EXPECT_TRUE(check.exhaustive);
}

class WrnAttemptFails : public ::testing::TestWithParam<int> {};

TEST_P(WrnAttemptFails, SameProtocolDisagreesOnWrnKForKAtLeast3) {
  // Theorem 1's executable face: the protocol that works on WRN_2 violates
  // agreement on WRN_k, k ≥ 3, and the explorer exhibits the schedule.
  const int k = GetParam();
  const auto violation = find_consensus_violation(
      [k](SchedulePolicy& driver, const std::vector<Value>& inputs) {
        Runtime rt;
        WrnObject wrn(k);
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(consensus2_attempt_from_wrn(
                ctx, wrn, p, inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver);
        check_agreement(run.decisions);
      },
      {0, 1});
  ASSERT_TRUE(violation.has_value()) << "k=" << k;
  EXPECT_NE(violation->find("agreement"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllK, WrnAttemptFails, ::testing::Values(3, 4, 5, 8));

TEST(GacBoundary, GacSolvesNConsensusButNaiveNPlus1Fails) {
  // GAC(n,i) gives consensus to n processes (block 0)...
  for (const auto [n, i] : {std::pair{2, 1}, {2, 2}, {3, 1}}) {
    std::vector<Value> inputs;
    for (int p = 0; p < n; ++p) {
      inputs.push_back(10 + p);
    }
    const auto check = check_consensus_algorithm(
        [n = n, i = i](SchedulePolicy& driver, const std::vector<Value>& in) {
          Runtime rt;
          GacObject gac(n, i);
          for (int p = 0; p < n; ++p) {
            rt.add_process([&, p](Context& ctx) {
              ctx.decide(consensus_attempt_from_gac(
                  ctx, gac, in[static_cast<std::size_t>(p)]));
            });
          }
          const auto run = rt.run(driver);
          check_all_done_and_decided(run);
          check_validity(in, run.decisions);
          check_agreement(run.decisions);
        },
        {inputs});
    EXPECT_TRUE(check.ok()) << "n=" << n << " i=" << i << ": "
                            << *check.violation;
  }
  // ...but n+1 processes on the same object disagree under some schedule.
  const auto violation = find_consensus_violation(
      [](SchedulePolicy& driver, const std::vector<Value>& inputs) {
        Runtime rt;
        GacObject gac(2, 1);  // n = 2: block size 2
        for (int p = 0; p < 3; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(consensus_attempt_from_gac(
                ctx, gac, inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver);
        check_agreement(run.decisions);
      },
      {1, 2, 3});
  EXPECT_TRUE(violation.has_value());
}

class CasConsensusSweep : public ::testing::TestWithParam<int> {};

TEST_P(CasConsensusSweep, CasSolvesConsensusForAnyN) {
  // The contrast class at the top of the hierarchy: one CAS register gives
  // consensus for any number of processes (consensus number ∞).
  const int n = GetParam();
  std::vector<Value> inputs;
  for (int i = 0; i < n; ++i) {
    inputs.push_back(70 + i);
  }
  const auto check = check_consensus_algorithm(
      [n](SchedulePolicy& driver, const std::vector<Value>& in) {
        Runtime rt;
        CompareAndSwap cas;
        for (int p = 0; p < n; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(consensus_from_cas(
                ctx, cas, in[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver);
        check_all_done_and_decided(run);
        check_validity(in, run.decisions);
        check_agreement(run.decisions);
      },
      {inputs});
  EXPECT_TRUE(check.ok()) << *check.violation;
  EXPECT_TRUE(check.exhaustive);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CasConsensusSweep,
                         ::testing::Values(1, 2, 3, 4, 6));

class StickyConsensusSweep : public ::testing::TestWithParam<int> {};

TEST_P(StickyConsensusSweep, StickyRegisterSolvesConsensusForAnyN) {
  const int n = GetParam();
  std::vector<Value> inputs;
  for (int i = 0; i < n; ++i) {
    inputs.push_back(90 + i);
  }
  const auto check = check_consensus_algorithm(
      [n](SchedulePolicy& driver, const std::vector<Value>& in) {
        Runtime rt;
        StickyRegister sticky;
        for (int p = 0; p < n; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(consensus_from_sticky(
                ctx, sticky, in[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver);
        check_all_done_and_decided(run);
        check_validity(in, run.decisions);
        check_agreement(run.decisions);
      },
      {inputs});
  EXPECT_TRUE(check.ok()) << *check.violation;
  EXPECT_TRUE(check.exhaustive);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StickyConsensusSweep,
                         ::testing::Values(1, 2, 4, 6));

TEST(StickyRegisterObject, FirstWriteWins) {
  Runtime rt;
  StickyRegister sticky;
  rt.add_process([&](Context& ctx) {
    EXPECT_EQ(sticky.read(ctx), kBottom);
    EXPECT_EQ(sticky.stick(ctx, 5), 5);
    EXPECT_EQ(sticky.stick(ctx, 9), 5);  // ignored
    EXPECT_EQ(sticky.read(ctx), 5);
    EXPECT_THROW(sticky.stick(ctx, kBottom), SimError);
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

TEST(CompareAndSwapObject, Semantics) {
  Runtime rt;
  CompareAndSwap cas(5);
  rt.add_process([&](Context& ctx) {
    EXPECT_EQ(cas.compare_and_swap(ctx, 4, 9), 5);  // mismatch: no effect
    EXPECT_EQ(cas.read(ctx), 5);
    EXPECT_EQ(cas.compare_and_swap(ctx, 5, 9), 5);  // hit: swapped
    EXPECT_EQ(cas.read(ctx), 9);
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

TEST(ClassicConsensus, RoleValidation) {
  Runtime rt;
  TwoConsensusShared shared;
  SwapRegister swap(kBottom);
  rt.add_process([&](Context& ctx) {
    EXPECT_THROW(consensus2_from_swap(ctx, shared, swap, 2, 1), SimError);
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

}  // namespace
}  // namespace subc
