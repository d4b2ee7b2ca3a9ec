// Tests for the GAC(n,i) cyclic-group-arrival objects and the O_{n,k}
// conjunction objects (the PODC 2016 reconstruction), plus the simulator-
// level separation experiments backing bench_t4.
#include "subc/objects/onk.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "subc/algorithms/onk_algorithms.hpp"
#include "subc/core/hierarchy.hpp"
#include "subc/core/tasks.hpp"
#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

template <class Body>
void solo(Body body) {
  Runtime rt;
  rt.add_process([&](Context& ctx) { body(ctx); });
  RoundRobinDriver driver;
  rt.run(driver);
}

TEST(GacObject, SequentialArrivalRule) {
  // n=2, i=1: m = 5, blocks {1,2}, {3,4}, wrap arrival 5.
  GacObject gac(2, 1);
  solo([&](Context& ctx) {
    EXPECT_EQ(gac.propose(ctx, 10), 10);  // arrival 1: block 0 first
    EXPECT_EQ(gac.propose(ctx, 20), 10);  // arrival 2: block 0
    EXPECT_EQ(gac.propose(ctx, 30), 30);  // arrival 3: block 1 first
    EXPECT_EQ(gac.propose(ctx, 40), 30);  // arrival 4: block 1
    EXPECT_EQ(gac.propose(ctx, 50), 10);  // arrival 5: wrap → arrivals[0]
  });
}

TEST(GacObject, HangsBeyondCapacity) {
  Runtime rt;
  GacObject gac(1, 1);  // m = 3
  rt.add_process([&](Context& ctx) {
    gac.propose(ctx, 1);
    gac.propose(ctx, 2);
    gac.propose(ctx, 3);
    gac.propose(ctx, 4);  // 4th propose hangs
    FAIL() << "unreachable";
  });
  RoundRobinDriver driver;
  const auto result = rt.run(driver);
  EXPECT_EQ(result.states[0], ProcState::kHung);
}

TEST(GacObject, CapacityAndAgreementAccessors) {
  GacObject gac(3, 2);
  EXPECT_EQ(gac.capacity(), 11);  // 3*3+2
  EXPECT_EQ(gac.agreement(), 3);
  EXPECT_EQ(gac.n(), 3);
  EXPECT_EQ(gac.level(), 2);
}

// Property: among m_i arrivals there are at most j_i = i+1 distinct
// outputs, and the bound is attained by the sequential schedule — for a
// grid of (n, i), under every schedule.
struct GacCase {
  int n;
  int i;
};

class GacAgreementSweep : public ::testing::TestWithParam<GacCase> {};

TEST_P(GacAgreementSweep, FullOccupancyRespectsAgreementBound) {
  const auto [n, i] = GetParam();
  const int m = GacObject::capacity_static(n, i);
  const int j = i + 1;
  std::vector<Value> inputs;
  for (int p = 0; p < m; ++p) {
    inputs.push_back(200 + p);
  }
  int max_distinct = 0;
  const ExecutionBody body = [&, n = n, i = i](SchedulePolicy& driver) {
    Runtime rt;
    GacObject gac(n, i);
    for (int p = 0; p < m; ++p) {
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(gac.propose(ctx, inputs[static_cast<std::size_t>(p)]));
      });
    }
    const auto run = rt.run(driver);
    check_all_done_and_decided(run);
    check_set_consensus(run, inputs, j);
    max_distinct = std::max(max_distinct, distinct_decisions(run.decisions));
  };
  if (m <= 5) {
    const auto r = Explorer::explore(body);
    EXPECT_TRUE(r.ok()) << *r.violation;
    EXPECT_TRUE(r.complete);
  } else {
    const auto r = RandomSweep::run(body, 500);
    EXPECT_TRUE(r.ok()) << *r.violation;
  }
  EXPECT_EQ(max_distinct, j);  // tight
}

INSTANTIATE_TEST_SUITE_P(Grid, GacAgreementSweep,
                         ::testing::Values(GacCase{1, 1}, GacCase{1, 2},
                                           GacCase{2, 1}, GacCase{2, 2},
                                           GacCase{3, 1}, GacCase{3, 2},
                                           GacCase{2, 3}));

TEST(OnkObject, ComponentsAreIndependent) {
  OnkObject onk(2, 3);
  solo([&](Context& ctx) {
    EXPECT_EQ(onk.propose(ctx, 0, 1), 1);
    EXPECT_EQ(onk.propose(ctx, 1, 2), 2);  // fresh component: own value
    EXPECT_EQ(onk.propose(ctx, 2, 3), 3);
    EXPECT_EQ(onk.propose(ctx, 1, 4), 2);  // block 0 of component 1
  });
  EXPECT_EQ(onk.component(0).capacity(), 2);
  EXPECT_EQ(onk.component(2).capacity(), 8);
  EXPECT_THROW(onk.component(3), SimError);
}

TEST(OnkObject, ParameterValidation) {
  EXPECT_THROW(OnkObject(0, 1), SimError);
  EXPECT_THROW(OnkObject(1, 0), SimError);
  EXPECT_THROW(GacObject(0, 0), SimError);
  GacObject gac(2, 1);
  solo([&](Context& ctx) {
    EXPECT_THROW(gac.propose(ctx, kBottom), SimError);
  });
}

// OnkSetConsensus: the optimal-partition construction achieves its declared
// agreement in the simulator.
struct OnkScCase {
  int n;
  int k;
  int procs;
};

class OnkSetConsensusSweep : public ::testing::TestWithParam<OnkScCase> {};

TEST_P(OnkSetConsensusSweep, AchievesDeclaredAgreement) {
  const auto [n, k, procs] = GetParam();
  std::vector<Value> inputs;
  for (int p = 0; p < procs; ++p) {
    inputs.push_back(300 + p);
  }
  OnkSetConsensus probe(n, k, procs);
  const int x = probe.agreement();
  EXPECT_EQ(x, onk_best_agreement(n, k, procs));
  int max_distinct = 0;
  const auto result = RandomSweep::run(
      [&, n = n, k = k, procs = procs](SchedulePolicy& driver) {
        Runtime rt;
        OnkSetConsensus algorithm(n, k, procs);
        for (int p = 0; p < procs; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(algorithm.propose(ctx, p,
                                         inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver);
        check_all_done_and_decided(run);
        check_set_consensus(run, inputs, x);
        max_distinct =
            std::max(max_distinct, distinct_decisions(run.decisions));
      },
      500);
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_EQ(max_distinct, x);  // the bound is realized by some schedule
}

INSTANTIATE_TEST_SUITE_P(Grid, OnkSetConsensusSweep,
                         ::testing::Values(OnkScCase{2, 1, 5},
                                           OnkScCase{2, 2, 8},
                                           OnkScCase{2, 2, 7},
                                           OnkScCase{2, 3, 11},
                                           OnkScCase{3, 2, 11},
                                           OnkScCase{3, 1, 7}));

TEST(OnkFromStrongerAdapter, SequentiallyIdenticalToNativeWeakerObject) {
  // O_{2,3} used as an O_{2,2}: on identical operation sequences (driven in
  // lockstep by one process, so arrival orders trivially coincide) the
  // adapter answers exactly like a native O_{2,2}.
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    Runtime rt;
    OnkObject stronger(2, 3);
    OnkFromStronger adapted(stronger, 2);
    OnkObject reference(2, 2);
    std::vector<std::pair<int, Value>> ops;
    std::vector<int> budget{2, 5};  // capacities of components 0 and 1
    const int total = 1 + static_cast<int>(rng() % 6);
    for (int o = 0; o < total; ++o) {
      const int component = static_cast<int>(rng() % 2);
      if (budget[static_cast<std::size_t>(component)] == 0) {
        continue;  // avoid hanging the sequence
      }
      --budget[static_cast<std::size_t>(component)];
      ops.emplace_back(component, static_cast<Value>(10 + o));
    }
    rt.add_process([&](Context& ctx) {
      for (const auto& [component, v] : ops) {
        ASSERT_EQ(adapted.propose(ctx, component, v),
                  reference.propose(ctx, component, v));
      }
    });
    RoundRobinDriver driver;
    rt.run(driver);
  }
}

TEST(OnkFromStrongerAdapter, ConcurrentUseKeepsComponentSemantics) {
  // Concurrent adapter use: per component, outputs are valid proposals and
  // within the component's agreement bound — under every schedule.
  const auto result = Explorer::explore(
      [](SchedulePolicy& driver) {
        Runtime rt;
        OnkObject stronger(2, 4);
        OnkFromStronger adapted(stronger, 2);
        std::vector<Value> got(4, kBottom);
        const std::vector<Value> inputs{10, 11, 12, 13};
        for (int p = 0; p < 4; ++p) {
          rt.add_process([&, p](Context& ctx) {
            got[static_cast<std::size_t>(p)] = adapted.propose(
                ctx, /*component=*/1, inputs[static_cast<std::size_t>(p)]);
          });
        }
        rt.run(driver);
        check_validity(inputs, got);
        check_k_agreement(got, onk_component_agreement(1));
      },
      Explorer::Options{.max_executions = 200'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

TEST(OnkFromStrongerAdapter, RejectsWrongDirection) {
  OnkObject weak(2, 2);
  EXPECT_THROW(OnkFromStronger(weak, 3), SimError);
  OnkObject strong(2, 4);
  OnkFromStronger adapted(strong, 2);
  Runtime rt;
  rt.add_process([&](Context& ctx) {
    EXPECT_THROW(adapted.propose(ctx, 2, 1), SimError);  // beyond weaker k
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

TEST(OnkSeparationInSimulator, NkProcessesSeparateKFromKPlus1) {
  // The 2016 separation, executed: at N_k = nk+n+k processes, O_{n,k+1}
  // realizes agreement ≤ k+1 in the simulator while O_{n,k}'s optimal
  // construction cannot do better than k+2 (calculus) and indeed hits k+2
  // under some schedule.
  const int n = 2;
  const int k = 2;
  const int system = n * k + n + k;  // 8
  std::vector<Value> inputs;
  for (int p = 0; p < system; ++p) {
    inputs.push_back(400 + p);
  }

  int max_distinct_k1 = 0;
  auto sweep = [&](int components, int* max_distinct) {
    return RandomSweep::run(
        [&, components](SchedulePolicy& driver) {
          Runtime rt;
          OnkSetConsensus algorithm(n, components, system);
          for (int p = 0; p < system; ++p) {
            rt.add_process([&, p](Context& ctx) {
              ctx.decide(algorithm.propose(
                  ctx, p, inputs[static_cast<std::size_t>(p)]));
            });
          }
          const auto run = rt.run(driver);
          check_all_done_and_decided(run);
          check_set_consensus(run, inputs, algorithm.agreement());
          *max_distinct =
              std::max(*max_distinct, distinct_decisions(run.decisions));
        },
        600);
  };

  const auto r1 = sweep(k + 1, &max_distinct_k1);
  EXPECT_TRUE(r1.ok()) << *r1.violation;
  EXPECT_EQ(max_distinct_k1, k + 1);

  int max_distinct_k = 0;
  const auto r2 = sweep(k, &max_distinct_k);
  EXPECT_TRUE(r2.ok()) << *r2.violation;
  EXPECT_EQ(max_distinct_k, k + 2);
}

}  // namespace
}  // namespace subc
