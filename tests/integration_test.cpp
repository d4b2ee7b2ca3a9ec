// Cross-module integration tests: the Theorem 2 equivalence loop executed
// end-to-end inside the simulator, algorithms stacked on derived (not
// atomic) substrates, and mixed-object worlds.
#include <gtest/gtest.h>

#include "subc/algorithms/wrn_anonymous.hpp"
#include "subc/algorithms/wrn_from_sse.hpp"
#include "subc/algorithms/wrn_set_consensus.hpp"
#include "subc/checking/linearizability.hpp"
#include "subc/core/hierarchy.hpp"
#include "subc/core/tasks.hpp"
#include "subc/objects/onk.hpp"
#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

// Theorem 2, both directions composed: the 1sWRN_k implemented by
// Algorithm 5 (from strong set election = (k,k−1)-set-consensus power) is
// plugged into Algorithm 2 to solve (k,k−1)-set consensus. The task
// properties and the linearizability of the inner object are both checked.
TEST(Integration, Theorem2LoopSetConsensusOnDerivedWrn) {
  for (const int k : {3, 4}) {
    std::vector<Value> inputs;
    for (int p = 0; p < k; ++p) {
      inputs.push_back(100 + p);
    }
    const auto result = RandomSweep::run(
        [&, k](SchedulePolicy& driver) {
          Runtime rt;
          WrnFromSse derived(k);  // Algorithm 5's implemented 1sWRN_k
          History history;
          for (int p = 0; p < k; ++p) {
            rt.add_process([&, p](Context& ctx) {
              // Algorithm 2 inlined over the derived object.
              const Value t = derived.one_shot_wrn(
                  ctx, p, inputs[static_cast<std::size_t>(p)], &history);
              ctx.decide(t != kBottom ? t
                                      : inputs[static_cast<std::size_t>(p)]);
            });
          }
          const auto run = rt.run(driver);
          check_all_done_and_decided(run);
          check_set_consensus(run, inputs, k - 1);
          require_linearizable(OneShotWrnSpec{k}, history);
        },
        400);
    EXPECT_TRUE(result.ok()) << "k=" << k << ": " << *result.violation;
  }
}

TEST(Integration, Theorem2LoopIsExhaustivelyCleanForK3Prefix) {
  std::vector<Value> inputs{100, 101, 102};
  const auto result = Explorer::explore(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        WrnFromSse derived(3);
        for (int p = 0; p < 3; ++p) {
          rt.add_process([&, p](Context& ctx) {
            const Value t = derived.one_shot_wrn(
                ctx, p, inputs[static_cast<std::size_t>(p)]);
            ctx.decide(t != kBottom ? t
                                    : inputs[static_cast<std::size_t>(p)]);
          });
        }
        const auto run = rt.run(driver);
        check_all_done_and_decided(run);
        check_set_consensus(run, inputs, 2);
      },
      Explorer::Options{.max_executions = 30'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
}

// Full register-grounded stack: Algorithm 3 where the renaming runs on the
// register-built snapshot (no atomic snapshot object anywhere below the
// 1sWRN objects).
TEST(Integration, Algorithm3OnRegisterBuiltSnapshots) {
  const int k = 3;
  std::vector<Value> inputs{11, 22, 33};
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        // SnapshotRenaming's register backing is selected inside
        // AnonymousSetConsensus via its own constructor; drive the variant
        // through a locally assembled pipeline instead.
        SnapshotRenaming renaming(k, /*use_register_snapshot=*/true);
        auto family = make_function_family(k, FunctionFamily::kCovering);
        std::vector<std::unique_ptr<RelaxedWrn>> rounds;
        for (std::size_t l = 0; l < family.size(); ++l) {
          rounds.push_back(std::make_unique<RelaxedWrn>(k));
        }
        for (int p = 0; p < k; ++p) {
          rt.add_process([&, p](Context& ctx) {
            const int j = renaming.rename(ctx, p, 70 + p);
            for (std::size_t l = 0; l < family.size(); ++l) {
              const int index = family[l][static_cast<std::size_t>(j)];
              const Value t = rounds[l]->rlx_wrn(
                  ctx, index, inputs[static_cast<std::size_t>(p)]);
              if (t != kBottom) {
                ctx.decide(t);
                return;
              }
            }
            ctx.decide(inputs[static_cast<std::size_t>(p)]);
          });
        }
        const auto run = rt.run(driver, 10'000'000);
        check_all_done_and_decided(run);
        check_set_consensus(run, inputs, k - 1);
      },
      60);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

// A mixed world: one group of processes runs Algorithm 2 on WRN_4 while
// another runs 2-consensus on the O_{2,2} component 0 — object state stays
// isolated per object instance.
TEST(Integration, IndependentObjectsDoNotInterfere) {
  const auto result = RandomSweep::run(
      [](SchedulePolicy& driver) {
        Runtime rt;
        WrnSetConsensus wrn_task(4);
        OnkObject onk(2, 2);
        const std::vector<Value> wrn_inputs{1, 2, 3, 4};
        const std::vector<Value> onk_inputs{50, 60};
        std::vector<Value> onk_decisions(2, kBottom);
        for (int p = 0; p < 4; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(wrn_task.propose(
                ctx, p, wrn_inputs[static_cast<std::size_t>(p)]));
          });
        }
        for (int q = 0; q < 2; ++q) {
          rt.add_process([&, q](Context& ctx) {
            onk_decisions[static_cast<std::size_t>(q)] = onk.propose(
                ctx, 0, onk_inputs[static_cast<std::size_t>(q)]);
          });
        }
        const auto run = rt.run(driver);
        // WRN task: first 4 decisions satisfy (4,3)-set consensus.
        std::vector<Value> wrn_decisions(run.decisions.begin(),
                                         run.decisions.begin() + 4);
        check_validity(wrn_inputs, wrn_decisions);
        check_k_agreement(wrn_decisions, 3);
        // O_{2,2} consensus group agrees.
        check_validity(onk_inputs, onk_decisions);
        check_agreement(onk_decisions);
      },
      500);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

// The hierarchy calculus agrees with what the simulator realizes: for
// k < k', Algorithm 2 on 1sWRN_{k} used by k' processes (partitioned)
// achieves the agreement Theorem 41 predicts.
TEST(Integration, CalculusPredictsSimulatedPartitionAgreement) {
  const int k = 3;        // source objects: 1sWRN_3 ≡ (3,2)-SC
  const int k_prime = 5;  // target: 5 processes
  const int predicted = sc_partition_agreement(k_prime, k, k - 1);  // 2+2=4
  ASSERT_EQ(predicted, 4);
  std::vector<Value> inputs{10, 20, 30, 40, 50};
  int max_distinct = 0;
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        WrnSetConsensus group_a(k);
        WrnSetConsensus group_b(k);
        for (int p = 0; p < k_prime; ++p) {
          rt.add_process([&, p](Context& ctx) {
            WrnSetConsensus& group = p < k ? group_a : group_b;
            ctx.decide(group.propose(ctx, p % k,
                                     inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver);
        check_all_done_and_decided(run);
        check_set_consensus(run, inputs, predicted);
        max_distinct =
            std::max(max_distinct, distinct_decisions(run.decisions));
      },
      1500);
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_EQ(max_distinct, predicted);
}

}  // namespace
}  // namespace subc
