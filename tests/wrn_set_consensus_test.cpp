// Tests for Algorithm 2 ((k−1)-set consensus for k processes from WRN_k)
// and Algorithm 6 (m-set consensus for n processes) — Claims 3–9,
// Lemma 39 and Corollary 40, machine-checked.
#include "subc/algorithms/wrn_set_consensus.hpp"

#include <gtest/gtest.h>

#include "subc/core/tasks.hpp"
#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

std::vector<Value> distinct_inputs(int n) {
  std::vector<Value> inputs;
  for (int i = 0; i < n; ++i) {
    inputs.push_back(100 + 7 * i);
  }
  return inputs;
}

// Exhaustive / randomized sweep over k: Algorithm 2 satisfies validity,
// (k−1)-agreement and wait-freedom (Claims 3, 6; Corollary 8, 9).
class Algorithm2Sweep : public ::testing::TestWithParam<int> {};

TEST_P(Algorithm2Sweep, SolvesKMinus1SetConsensus) {
  const int k = GetParam();
  const std::vector<Value> inputs = distinct_inputs(k);
  const ExecutionBody body = [&](SchedulePolicy& driver) {
    Runtime rt;
    WrnSetConsensus algorithm(k);
    for (int p = 0; p < k; ++p) {
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(
            algorithm.propose(ctx, p, inputs[static_cast<std::size_t>(p)]));
      });
    }
    const auto result = rt.run(driver);
    check_all_done_and_decided(result);  // Claim 3: wait-free
    check_set_consensus(result, inputs, k - 1);
  };
  if (k <= 6) {
    const auto r = Explorer::explore(body);
    EXPECT_TRUE(r.ok()) << *r.violation;
    EXPECT_TRUE(r.complete);
  } else {
    const auto r = RandomSweep::run(body, 2000);
    EXPECT_TRUE(r.ok()) << *r.violation;
  }
}

INSTANTIATE_TEST_SUITE_P(AllK, Algorithm2Sweep,
                         ::testing::Values(3, 4, 5, 6, 7, 8));

TEST(Algorithm2, FirstProposerDecidesItsOwnValue) {
  // Claim 4, on every schedule: identify the first process to perform WRN
  // and check it decided its own proposal.
  const int k = 3;
  const auto result = Explorer::explore([&](SchedulePolicy& driver) {
    Runtime rt;
    WrnSetConsensus algorithm(k);
    std::vector<int> wrn_order;  // pids in WRN completion order
    const std::vector<Value> inputs = distinct_inputs(k);
    for (int p = 0; p < k; ++p) {
      rt.add_process([&, p](Context& ctx) {
        // propose() performs exactly one shared step (the WRN); record
        // completion order by observing it afterwards (still atomic wrt
        // other processes because recording is process-local code).
        const Value d =
            algorithm.propose(ctx, p, inputs[static_cast<std::size_t>(p)]);
        wrn_order.push_back(p);
        ctx.decide(d);
      });
    }
    const auto run = rt.run(driver);
    const int first = wrn_order.front();
    if (run.decisions[static_cast<std::size_t>(first)] !=
        inputs[static_cast<std::size_t>(first)]) {
      throw SpecViolation("first WRN invoker did not decide its own value");
    }
    // Claim 5: the last process decides the proposal of its successor.
    const int last = wrn_order.back();
    if (run.decisions[static_cast<std::size_t>(last)] !=
        inputs[static_cast<std::size_t>((last + 1) % k)]) {
      throw SpecViolation("last WRN invoker did not adopt its successor");
    }
  });
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

TEST(Algorithm2, DecisionIsOwnOrSuccessorProposal) {
  // Claim 6 refined: P_i decides v_i or v_{(i+1) mod k}.
  const int k = 4;
  const std::vector<Value> inputs = distinct_inputs(k);
  const auto result = Explorer::explore([&](SchedulePolicy& driver) {
    Runtime rt;
    WrnSetConsensus algorithm(k);
    for (int p = 0; p < k; ++p) {
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(
            algorithm.propose(ctx, p, inputs[static_cast<std::size_t>(p)]));
      });
    }
    const auto run = rt.run(driver);
    for (int p = 0; p < k; ++p) {
      const Value d = run.decisions[static_cast<std::size_t>(p)];
      if (d != inputs[static_cast<std::size_t>(p)] &&
          d != inputs[static_cast<std::size_t>((p + 1) % k)]) {
        throw SpecViolation("decision neither own nor successor proposal");
      }
    }
  });
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Algorithm2, KMinus1BoundIsTight) {
  // Some schedule realizes exactly k−1 distinct decisions.
  const int k = 4;
  const std::vector<Value> inputs = distinct_inputs(k);
  int max_distinct = 0;
  const auto result = Explorer::explore([&](SchedulePolicy& driver) {
    Runtime rt;
    WrnSetConsensus algorithm(k);
    for (int p = 0; p < k; ++p) {
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(
            algorithm.propose(ctx, p, inputs[static_cast<std::size_t>(p)]));
      });
    }
    const auto run = rt.run(driver);
    max_distinct = std::max(max_distinct, distinct_decisions(run.decisions));
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(max_distinct, k - 1);
}

TEST(Algorithm2, SubsetParticipationStillValid) {
  // Fewer than k participants: validity and (k−1)-agreement still hold
  // (trivially); every participant terminates.
  const int k = 5;
  const std::vector<Value> inputs = distinct_inputs(k);
  const auto result = Explorer::explore([&](SchedulePolicy& driver) {
    Runtime rt;
    WrnSetConsensus algorithm(k);
    const std::vector<int> participants{1, 3};
    for (const int p : participants) {
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(
            algorithm.propose(ctx, p, inputs[static_cast<std::size_t>(p)]));
      });
    }
    const auto run = rt.run(driver);
    check_all_done_and_decided(run);
    check_validity(inputs, run.decisions);
  });
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Algorithm2, WorksWithFullWrnObjectToo) {
  const int k = 3;
  const std::vector<Value> inputs = distinct_inputs(k);
  const auto result = Explorer::explore([&](SchedulePolicy& driver) {
    Runtime rt;
    WrnSetConsensus algorithm(k, /*one_shot=*/false);
    for (int p = 0; p < k; ++p) {
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(
            algorithm.propose(ctx, p, inputs[static_cast<std::size_t>(p)]));
      });
    }
    const auto run = rt.run(driver);
    check_all_done_and_decided(run);
    check_set_consensus(run, inputs, k - 1);
  });
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Algorithm2, RejectsBadParameters) {
  EXPECT_THROW(WrnSetConsensus(2), SimError);
  WrnSetConsensus algorithm(3);
  Runtime rt;
  rt.add_process([&](Context& ctx) {
    EXPECT_THROW(algorithm.propose(ctx, 3, 1), SimError);
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

// Algorithm 6 sweep over (n, k): m-set consensus with
// m = (k−1)⌊n/k⌋ + min(k−1, n mod k) (Lemma 39 / Corollary 40).
struct RatioCase {
  int n;
  int k;
};

class Algorithm6Sweep : public ::testing::TestWithParam<RatioCase> {};

TEST_P(Algorithm6Sweep, SolvesMSetConsensus) {
  const auto [n, k] = GetParam();
  const std::vector<Value> inputs = distinct_inputs(n);
  WrnRatioSetConsensus probe(n, k);
  const int m = probe.agreement();
  // Paper's headline bound: (k−1)/k ≤ m/n always holds for our m.
  EXPECT_LE((k - 1) * n, k * m + k * (k - 1));
  const ExecutionBody body = [&, n = n, k = k](SchedulePolicy& driver) {
    Runtime rt;
    WrnRatioSetConsensus algorithm(n, k);
    for (int p = 0; p < n; ++p) {
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(
            algorithm.propose(ctx, p, inputs[static_cast<std::size_t>(p)]));
      });
    }
    const auto run = rt.run(driver);
    check_all_done_and_decided(run);
    check_set_consensus(run, inputs, m);
  };
  if (n <= 5) {
    const auto r = Explorer::explore(body);
    EXPECT_TRUE(r.ok()) << *r.violation;
  } else {
    const auto r = RandomSweep::run(body, 1000);
    EXPECT_TRUE(r.ok()) << *r.violation;
  }
}

INSTANTIATE_TEST_SUITE_P(Ratio, Algorithm6Sweep,
                         ::testing::Values(RatioCase{3, 3}, RatioCase{4, 3},
                                           RatioCase{5, 3}, RatioCase{6, 3},
                                           RatioCase{9, 3}, RatioCase{12, 3},
                                           RatioCase{8, 4}, RatioCase{10, 4},
                                           RatioCase{10, 5}, RatioCase{7, 4}));

TEST(Algorithm6, PaperExampleWrn3Gives12_8) {
  // "WRN_3 objects can be used for implementing (12, 8)-set consensus."
  WrnRatioSetConsensus algorithm(12, 3);
  EXPECT_EQ(algorithm.agreement(), 8);
}

TEST(Algorithm6, EachGroupAchievesLemma39Bound) {
  // Lemma 39: every aligned group of k processes decides at most k−1
  // distinct values among themselves.
  const int n = 6;
  const int k = 3;
  const std::vector<Value> inputs = distinct_inputs(n);
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        WrnRatioSetConsensus algorithm(n, k);
        for (int p = 0; p < n; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(algorithm.propose(ctx, p,
                                         inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver);
        for (int g = 0; g < n / k; ++g) {
          std::vector<Value> group(
              run.decisions.begin() + g * k,
              run.decisions.begin() + (g + 1) * k);
          check_k_agreement(group, k - 1);
        }
      },
      2000);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

}  // namespace
}  // namespace subc
