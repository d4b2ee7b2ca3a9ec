// Tests for the Borowsky–Gafni simulation: consistent simulated executions
// across simulators, k-set-consensus transfer, crash resilience up to k−1
// failures, and the blocking behaviour beyond.
#include "subc/algorithms/bg_simulation.hpp"

#include <gtest/gtest.h>

#include "subc/core/tasks.hpp"
#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

TEST(BgSimulation, SoloSimulatorCompletesAndDecidesOwnInput) {
  Runtime rt;
  BgSimulation bg(/*simulators=*/1, /*n=*/4, /*k=*/2);
  Value decision = kBottom;
  rt.add_process(
      [&](Context& ctx) { decision = bg.run_simulator(ctx, 0, 42); });
  RoundRobinDriver driver;
  rt.run(driver, 10'000'000);
  // The only simulator sponsors every simulated input with 42.
  EXPECT_EQ(decision, 42);
}

TEST(BgSimulation, TransfersKSetConsensusUnderRandomSchedules) {
  // m simulators, distinct inputs: outputs valid and ≤ k distinct.
  struct Case {
    int m;
    int n;
    int k;
  };
  for (const auto [m, n, k] :
       {Case{3, 5, 2}, Case{3, 6, 2}, Case{4, 6, 3}, Case{2, 4, 1}}) {
    std::vector<Value> inputs;
    for (int s = 0; s < m; ++s) {
      inputs.push_back(100 + 7 * s);
    }
    const auto result = RandomSweep::run(
        [&, m = m, n = n, k = k](SchedulePolicy& driver) {
          Runtime rt;
          BgSimulation bg(m, n, k);
          for (int s = 0; s < m; ++s) {
            rt.add_process([&, s](Context& ctx) {
              ctx.decide(bg.run_simulator(
                  ctx, s, inputs[static_cast<std::size_t>(s)]));
            });
          }
          const auto run = rt.run(driver, 10'000'000);
          check_all_done_and_decided(run);
          check_set_consensus(run, inputs, k);
        },
        300);
    EXPECT_TRUE(result.ok())
        << "m=" << m << " n=" << n << " k=" << k << ": " << *result.violation;
  }
}

TEST(BgSimulation, AllSimulatorsObserveTheSameExecution) {
  // The defining BG property: agreed inputs, agreed views (per round) and
  // decisions match across simulators wherever both observed them.
  const int m = 3;
  const int n = 5;
  const int k = 2;
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        BgSimulation bg(m, n, k);
        for (int s = 0; s < m; ++s) {
          rt.add_process([&, s](Context& ctx) {
            ctx.decide(bg.run_simulator(ctx, s, 10 + s));
          });
        }
        rt.run(driver, 10'000'000);
        for (int a = 0; a < m; ++a) {
          for (int b = a + 1; b < m; ++b) {
            const auto& pa = bg.observed(a);
            const auto& pb = bg.observed(b);
            for (int j = 0; j < n; ++j) {
              const auto& ja = pa[static_cast<std::size_t>(j)];
              const auto& jb = pb[static_cast<std::size_t>(j)];
              if (ja.input != kBottom && jb.input != kBottom &&
                  ja.input != jb.input) {
                throw SpecViolation("simulators disagree on an input");
              }
              const std::size_t rounds =
                  std::min(ja.views.size(), jb.views.size());
              for (std::size_t r = 0; r < rounds; ++r) {
                if (ja.views[r] != jb.views[r]) {
                  throw SpecViolation("simulators disagree on a view");
                }
              }
              if (ja.decision != kBottom && jb.decision != kBottom &&
                  ja.decision != jb.decision) {
                throw SpecViolation("simulators disagree on a decision");
              }
            }
          }
        }
      },
      300);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(BgSimulation, SimulatedViewsAreMonotoneAndContainQuorumAtDecision) {
  const auto result = RandomSweep::run(
      [](SchedulePolicy& driver) {
        Runtime rt;
        BgSimulation bg(3, 5, 2);
        for (int s = 0; s < 3; ++s) {
          rt.add_process([&, s](Context& ctx) {
            ctx.decide(bg.run_simulator(ctx, s, 10 + s));
          });
        }
        rt.run(driver, 10'000'000);
        for (int s = 0; s < 3; ++s) {
          for (const auto& proc : bg.observed(s)) {
            // Views grow monotonically (set containment on non-⊥ cells).
            for (std::size_t r = 1; r < proc.views.size(); ++r) {
              for (std::size_t c = 0; c < proc.views[r].size(); ++c) {
                if (proc.views[r - 1][c] != kBottom &&
                    proc.views[r][c] != proc.views[r - 1][c]) {
                  throw SpecViolation("simulated views not monotone");
                }
              }
            }
            if (proc.decision != kBottom) {
              const auto& last = proc.views.back();
              int visible = 0;
              Value min_seen = kBottom;
              for (const Value v : last) {
                if (v != kBottom) {
                  ++visible;
                  min_seen = min_seen == kBottom ? v : std::min(min_seen, v);
                }
              }
              if (visible < bg.quorum() || proc.decision != min_seen) {
                throw SpecViolation("decision does not match T3's rule");
              }
            }
          }
        }
      },
      300);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(BgSimulation, ToleratesUpToKMinus1CrashedSimulators) {
  // Crash f = k−1 simulators at arbitrary early points: survivors still
  // decide, outputs still valid and ≤ k distinct.
  const int m = 4;
  const int n = 6;
  const int k = 3;
  const std::vector<Value> inputs{10, 20, 30, 40};
  for (int victim1 = 0; victim1 < m; ++victim1) {
    for (int steps1 = 0; steps1 <= 4; steps1 += 2) {
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Runtime rt;
        BgSimulation bg(m, n, k);
        for (int s = 0; s < m; ++s) {
          rt.add_process([&, s](Context& ctx) {
            ctx.decide(bg.run_simulator(
                ctx, s, inputs[static_cast<std::size_t>(s)]));
          });
        }
        // Crash two victims (k−1 = 2): victim1 after steps1 own steps,
        // victim2 immediately.
        const int victim2 = (victim1 + 1) % m;
        struct Driver final : SchedulePolicy {
          Runtime* rt;
          RandomDriver inner;
          int victim1, steps1, victim2;
          bool crashed1 = false, crashed2 = false;
          Driver(Runtime* r, std::uint64_t seed, int v1, int s1, int v2)
              : rt(r), inner(seed), victim1(v1), steps1(s1), victim2(v2) {}
          std::size_t pick(std::span<const int> enabled,
                           std::span<const Access> /*footprints*/ = {})
              override {
            if (!crashed2) {
              rt->crash(victim2);
              crashed2 = true;
            }
            if (!crashed1 && rt->steps_of(victim1) >= steps1) {
              rt->crash(victim1);
              crashed1 = true;
            }
            std::vector<std::size_t> candidates;
            for (std::size_t i = 0; i < enabled.size(); ++i) {
              if (enabled[i] != victim1 && enabled[i] != victim2) {
                candidates.push_back(i);
              }
            }
            if (candidates.empty()) {
              return 0;  // kernel re-checks states and skips crashed picks
            }
            return candidates[inner.choose(
                static_cast<std::uint32_t>(candidates.size()))];
          }
          std::uint32_t choose(std::uint32_t arity) override {
            return inner.choose(arity);
          }
        };
        // NOTE: victim1 == victim2 cannot happen ((v+1) mod m != v for m>1).
        Driver driver(&rt, seed, victim1, steps1, victim2);
        const auto result = rt.run(driver, 10'000'000);
        check_decided_if_done(result);
        check_validity(inputs, result.decisions);
        check_k_agreement(result.decisions, k);
        for (int s = 0; s < m; ++s) {
          if (s != victim1 && s != victim2) {
            ASSERT_EQ(result.states[static_cast<std::size_t>(s)],
                      ProcState::kDone)
                << "survivor " << s << " stalled (victims " << victim1 << ","
                << victim2 << " seed " << seed << ")";
          }
        }
      }
    }
  }
}

TEST(BgSimulation, ParameterValidation) {
  EXPECT_THROW(BgSimulation(0, 3, 1), SimError);
  EXPECT_THROW(BgSimulation(2, 3, 0), SimError);
  EXPECT_THROW(BgSimulation(2, 3, 4), SimError);
  Runtime rt;
  BgSimulation bg(2, 3, 1);
  rt.add_process([&](Context& ctx) {
    EXPECT_THROW(bg.run_simulator(ctx, 5, 1), SimError);
    EXPECT_THROW(bg.run_simulator(ctx, 0, kBottom), SimError);
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

}  // namespace
}  // namespace subc
