// Claim-by-claim machine checks: each numbered claim/lemma of the paper
// that talks about *executions* is asserted directly on simulated runs —
// timing relations on recorded histories, decision patterns under scripted
// schedules, and the §5 precedence graph G.
#include <gtest/gtest.h>

#include "subc/algorithms/wrn_anonymous.hpp"
#include "subc/algorithms/wrn_from_sse.hpp"
#include "subc/algorithms/wrn_set_consensus.hpp"
#include "subc/checking/linearizability.hpp"
#include "subc/core/tasks.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/history.hpp"

namespace subc {
namespace {

// --------------------------------------------------------------------------
// Algorithm 2 claims (Section 4.1)
// --------------------------------------------------------------------------

TEST(Claim7, ProcessDecidesOwnValueIfSuccessorHasNotInvoked) {
  // Claim 7: P_i decides its own proposal if P_{(i+1) mod k} has not
  // invoked WRN yet. Scripted: schedule P_2 to completion while P_0 (its
  // successor is P_3... pick i=1, successor 2): run P_1 before P_2 ever
  // steps.
  const int k = 4;
  Runtime rt;
  WrnSetConsensus algorithm(k);
  std::vector<Value> inputs{10, 20, 30, 40};
  for (int p = 0; p < k; ++p) {
    rt.add_process([&, p](Context& ctx) {
      ctx.decide(
          algorithm.propose(ctx, p, inputs[static_cast<std::size_t>(p)]));
    });
  }
  // P_1 first (successor P_2 silent), then the rest.
  ScriptedDriver driver({1, 0, 3, 2});
  const auto result = rt.run(driver);
  EXPECT_EQ(result.decisions[1], inputs[1]);  // Claim 7 for i = 1
  // Claim 5 for the last invoker (P_2): decides its successor P_3's value.
  EXPECT_EQ(result.decisions[2], inputs[3]);
}

TEST(Claims4And5, FirstDecidesOwnLastDecidesSuccessorEverySchedule) {
  // Claims 4 and 5, quantified over every schedule for k = 4.
  const int k = 4;
  const std::vector<Value> inputs{10, 20, 30, 40};
  const auto result = Explorer::explore([&](SchedulePolicy& driver) {
    Runtime rt;
    WrnSetConsensus algorithm(k);
    std::vector<int> order;
    for (int p = 0; p < k; ++p) {
      rt.add_process([&, p](Context& ctx) {
        const Value d =
            algorithm.propose(ctx, p, inputs[static_cast<std::size_t>(p)]);
        order.push_back(p);  // process-local code: records WRN order
        ctx.decide(d);
      });
    }
    const auto run = rt.run(driver);
    const int first = order.front();
    const int last = order.back();
    if (run.decisions[static_cast<std::size_t>(first)] !=
        inputs[static_cast<std::size_t>(first)]) {
      throw SpecViolation("Claim 4 violated");
    }
    if (run.decisions[static_cast<std::size_t>(last)] !=
        inputs[static_cast<std::size_t>((last + 1) % k)]) {
      throw SpecViolation("Claim 5 violated");
    }
  });
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

// --------------------------------------------------------------------------
// Algorithm 3 claims (Section 4.2)
// --------------------------------------------------------------------------

TEST(Claim16, SomeProcessAdoptsAnothersValueWhenAllKParticipate) {
  // Claim 16: with all k processes participating with distinct inputs,
  // some process decides the value of another — in every run.
  const int k = 3;
  const std::vector<Value> inputs{11, 22, 33};
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        AnonymousSetConsensus algorithm(k, k);
        for (int p = 0; p < k; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(algorithm.propose(ctx, p, 800 + p,
                                         inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver, 10'000'000);
        bool someone_adopted = false;
        for (int p = 0; p < k; ++p) {
          if (run.decisions[static_cast<std::size_t>(p)] !=
              inputs[static_cast<std::size_t>(p)]) {
            someone_adopted = true;
          }
        }
        if (!someone_adopted) {
          throw SpecViolation("Claim 16 violated: everyone decided itself");
        }
      },
      400);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Corollary17, SomeProposalIsNeverDecided) {
  // (k−1)-agreement in its sharp form: some proposal is decided by nobody.
  const int k = 3;
  const std::vector<Value> inputs{11, 22, 33};
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        AnonymousSetConsensus algorithm(k, k);
        for (int p = 0; p < k; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(algorithm.propose(ctx, p, 800 + p,
                                         inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver, 10'000'000);
        for (const Value candidate : inputs) {
          bool decided_by_someone = false;
          for (const Value d : run.decisions) {
            decided_by_someone = decided_by_someone || d == candidate;
          }
          if (!decided_by_someone) {
            return;  // found the undecided proposal
          }
        }
        throw SpecViolation("Corollary 17 violated: all proposals decided");
      },
      400);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

// --------------------------------------------------------------------------
// Section 5 lemmas on Algorithm 5 histories
// --------------------------------------------------------------------------

struct Alg5Run {
  History history;
  std::vector<Value> outputs;  // per index
};

Alg5Run run_alg5(SchedulePolicy& driver, int k) {
  Alg5Run out;
  out.outputs.assign(static_cast<std::size_t>(k), kBottom - 0);
  Runtime rt;
  WrnFromSse object(k);
  for (int p = 0; p < k; ++p) {
    rt.add_process([&, p, k](Context& ctx) {
      out.outputs[static_cast<std::size_t>(p)] =
          object.one_shot_wrn(ctx, p, 100 + p, &out.history);
    });
  }
  rt.run(driver);
  return out;
}

const HistoryEntry* entry_for_index(const Alg5Run& run, int index) {
  for (const auto& e : run.history.entries()) {
    if (e.op[0] == index) {
      return &e;
    }
  }
  return nullptr;
}

TEST(Lemmas25And26, TimingRelationsHoldOnEveryRecordedHistory) {
  // Lemma 25: w_i returns ⊥ ⇒ w_{(i+1) mod k} finishes after w_i starts.
  // Lemma 26: w_i returns v_{(i+1) mod k} ⇒ w_i finishes after
  //           w_{(i+1) mod k} starts.
  const int k = 3;
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        const Alg5Run run = run_alg5(driver, k);
        for (int i = 0; i < k; ++i) {
          const auto* wi = entry_for_index(run, i);
          const auto* wsucc = entry_for_index(run, (i + 1) % k);
          ASSERT_NE(wi, nullptr);
          ASSERT_NE(wsucc, nullptr);
          const Value output = run.outputs[static_cast<std::size_t>(i)];
          if (output == kBottom) {
            if (wsucc->responded_at < wi->invoked_at) {
              throw SpecViolation("Lemma 25 violated at i=" +
                                  std::to_string(i));
            }
          } else {
            if (wi->responded_at < wsucc->invoked_at) {
              throw SpecViolation("Lemma 26 violated at i=" +
                                  std::to_string(i));
            }
          }
        }
      },
      800);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Corollary28, PrecedenceGraphGIsAcyclic) {
  // G: edge w_i → w_{i+1} when w_i returned ⊥; edge w_{i+1} → w_i when w_i
  // returned v_{i+1}. Corollary 28: no directed cycles — equivalently for
  // this ring topology, not all edges point the same way around, i.e. at
  // least one ⊥ (Claim 23) AND at least one successor-adoption (Claim 24).
  const int k = 3;
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        const Alg5Run run = run_alg5(driver, k);
        int bottoms = 0;
        int adoptions = 0;
        for (int i = 0; i < k; ++i) {
          if (run.outputs[static_cast<std::size_t>(i)] == kBottom) {
            ++bottoms;
          } else {
            ++adoptions;
          }
        }
        if (bottoms == 0 || adoptions == 0) {
          throw SpecViolation("Corollary 28 violated: G has a length-k "
                              "cycle (" + std::to_string(bottoms) + " ⊥, " +
                              std::to_string(adoptions) + " adoptions)");
        }
      },
      800);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Corollary36, BottomReturnsExactlyMatchALinearLowerSet) {
  // Corollary 36: w_i returns ⊥ iff w_i ≼ w_{(i+1) mod k} in the
  // linearization — so walking the ring, the ⊥-returners are exactly the
  // operations that precede their successor. We verify the global
  // consequence: ordering operations by (any) legal linearization from the
  // checker, each w_i returns ⊥ iff it appears before w_{(i+1) mod k}.
  const int k = 3;
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        const Alg5Run run = run_alg5(driver, k);
        const auto lin =
            check_linearizable(OneShotWrnSpec{k}, run.history.entries());
        if (!lin.linearizable) {
          throw SpecViolation("history not linearizable");
        }
        // Position of each index in the linearization.
        std::vector<int> position(static_cast<std::size_t>(k), -1);
        for (std::size_t pos = 0; pos < lin.order.size(); ++pos) {
          const auto& e = run.history.entries()[lin.order[pos]];
          position[static_cast<std::size_t>(e.op[0])] =
              static_cast<int>(pos);
        }
        for (int i = 0; i < k; ++i) {
          const bool returned_bottom =
              run.outputs[static_cast<std::size_t>(i)] == kBottom;
          const bool before_successor =
              position[static_cast<std::size_t>(i)] <
              position[static_cast<std::size_t>((i + 1) % k)];
          if (returned_bottom != before_successor) {
            throw SpecViolation("Corollary 36 violated at i=" +
                                std::to_string(i));
          }
        }
      },
      800);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

}  // namespace
}  // namespace subc
