// Tests for the constructive direction of Theorem 41: (n,k)-set consensus
// from nondeterministic (m,j)-set-consensus objects by partitioning, driven
// adversarially in the simulator.
#include "subc/algorithms/partition_set_consensus.hpp"

#include <gtest/gtest.h>

#include "subc/core/tasks.hpp"
#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

struct PCase {
  int n;
  int m;
  int j;
};

class PartitionSweep : public ::testing::TestWithParam<PCase> {};

TEST_P(PartitionSweep, MeetsTheorem41Bound) {
  const auto [n, m, j] = GetParam();
  std::vector<Value> inputs;
  for (int p = 0; p < n; ++p) {
    inputs.push_back(10 + p);
  }
  PartitionSetConsensus probe(n, m, j);
  const int k = probe.agreement();
  EXPECT_EQ(k, sc_partition_agreement(n, m, j));
  int max_distinct = 0;
  const ExecutionBody body = [&, n = n, m = m, j = j](SchedulePolicy& driver) {
    Runtime rt;
    PartitionSetConsensus algorithm(n, m, j);
    for (int p = 0; p < n; ++p) {
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(
            algorithm.propose(ctx, p, inputs[static_cast<std::size_t>(p)]));
      });
    }
    const auto run = rt.run(driver);
    check_all_done_and_decided(run);
    check_set_consensus(run, inputs, k);
    max_distinct = std::max(max_distinct, distinct_decisions(run.decisions));
  };
  // Small instances exhaustively (including all adversary choices of the
  // nondeterministic objects); larger ones randomly.
  if (n <= 4) {
    const auto r =
        Explorer::explore(body, Explorer::Options{.max_executions = 400'000});
    EXPECT_TRUE(r.ok()) << *r.violation;
  } else {
    const auto r = RandomSweep::run(body, 800);
    EXPECT_TRUE(r.ok()) << *r.violation;
  }
  // Tightness: the adversary can realize the full bound.
  EXPECT_EQ(max_distinct, std::min(k, n));
}

INSTANTIATE_TEST_SUITE_P(Grid, PartitionSweep,
                         ::testing::Values(PCase{3, 3, 2}, PCase{4, 3, 2},
                                           PCase{6, 3, 2}, PCase{5, 5, 2},
                                           PCase{6, 4, 2}, PCase{7, 3, 2},
                                           PCase{4, 4, 3}, PCase{8, 4, 3}));

TEST(PartitionSetConsensus, SubsetParticipation) {
  // Only some processes participate: still valid, still within bound.
  const auto result = RandomSweep::run(
      [](SchedulePolicy& driver) {
        Runtime rt;
        PartitionSetConsensus algorithm(6, 3, 2);
        const std::vector<Value> inputs{10, 11, 12, 13, 14, 15};
        for (const int p : {0, 2, 5}) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(algorithm.propose(ctx, p,
                                         inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver);
        check_decided_if_done(run);
        check_validity(inputs, run.decisions);
        check_k_agreement(run.decisions, algorithm.agreement());
      },
      500);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(PartitionSetConsensus, ParameterValidation) {
  EXPECT_THROW(PartitionSetConsensus(0, 3, 2), SimError);
  EXPECT_THROW(PartitionSetConsensus(3, 2, 2), SimError);
  PartitionSetConsensus algorithm(3, 3, 2);
  Runtime rt;
  rt.add_process([&](Context& ctx) {
    EXPECT_THROW(algorithm.propose(ctx, 3, 1), SimError);
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

}  // namespace
}  // namespace subc
