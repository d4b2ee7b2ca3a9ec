// Tests for Algorithm 3 ((k−1)-set consensus for k participants out of a
// large name space) and the function family machinery: Claims 11–18.
#include "subc/algorithms/wrn_anonymous.hpp"

#include <gtest/gtest.h>

#include <set>

#include "subc/core/tasks.hpp"
#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

TEST(FunctionFamily, CoveringFamilyHasBinomialSize) {
  // C(2k−1, k): 10 for k=3, 35 for k=4, 126 for k=5.
  EXPECT_EQ(make_function_family(3, FunctionFamily::kCovering).size(), 10u);
  EXPECT_EQ(make_function_family(4, FunctionFamily::kCovering).size(), 35u);
  EXPECT_EQ(make_function_family(5, FunctionFamily::kCovering).size(), 126u);
}

TEST(FunctionFamily, FullFamilyHasPowerSize) {
  // k^(2k−1): 243 for k=3.
  EXPECT_EQ(make_function_family(3, FunctionFamily::kFull).size(), 243u);
  EXPECT_THROW(make_function_family(6, FunctionFamily::kFull), SimError);
}

TEST(FunctionFamily, CoveringFamilyCoversEveryKSubset) {
  // The property Claim 16 needs: for every k-subset R of {0..2k−2} there is
  // an f_ℓ mapping R onto {0..k−1}.
  for (const int k : {3, 4, 5}) {
    const auto family = make_function_family(k, FunctionFamily::kCovering);
    const int domain = 2 * k - 1;
    std::vector<int> subset(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      subset[static_cast<std::size_t>(i)] = i;
    }
    for (;;) {
      bool covered = false;
      for (const auto& f : family) {
        std::set<int> image;
        for (const int r : subset) {
          image.insert(f[static_cast<std::size_t>(r)]);
        }
        if (static_cast<int>(image.size()) == k) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "k=" << k;
      int i = k - 1;
      while (i >= 0 &&
             subset[static_cast<std::size_t>(i)] == domain - k + i) {
        --i;
      }
      if (i < 0) {
        break;
      }
      ++subset[static_cast<std::size_t>(i)];
      for (int j = i + 1; j < k; ++j) {
        subset[static_cast<std::size_t>(j)] =
            subset[static_cast<std::size_t>(j - 1)] + 1;
      }
    }
  }
}

TEST(FunctionFamily, MapsLandInRange) {
  for (const auto kind : {FunctionFamily::kCovering, FunctionFamily::kFull}) {
    const int k = 3;
    for (const auto& f : make_function_family(k, kind)) {
      ASSERT_EQ(f.size(), static_cast<std::size_t>(2 * k - 1));
      for (const int y : f) {
        EXPECT_GE(y, 0);
        EXPECT_LT(y, k);
      }
    }
  }
}

// Algorithm 3 end-to-end: k participants with sparse original names solve
// (k−1)-set consensus. Random sweeps (the renaming + 10·WRN rounds make the
// schedule tree too deep for full exhaustion at useful sizes).
class Algorithm3Sweep : public ::testing::TestWithParam<int> {};

TEST_P(Algorithm3Sweep, SolvesKMinus1SetConsensusForSparseNames) {
  const int k = GetParam();
  std::vector<Value> inputs;
  for (int i = 0; i < k; ++i) {
    inputs.push_back(1000 + 13 * i);
  }
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        AnonymousSetConsensus algorithm(k, /*slots=*/k);
        for (int p = 0; p < k; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(algorithm.propose(ctx, /*slot=*/p,
                                         /*id=*/7000 + 31 * p,
                                         inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver, /*max_steps=*/5'000'000);
        check_all_done_and_decided(run);
        check_set_consensus(run, inputs, k - 1);
      },
      k <= 3 ? 400 : 120);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

INSTANTIATE_TEST_SUITE_P(AllK, Algorithm3Sweep, ::testing::Values(3, 4));

TEST(Algorithm3, ExhaustiveSmallInstance) {
  // k=3 with only 2 participants: exhaustively check validity, agreement
  // and termination (the sweep is shallow enough to bound).
  std::vector<Value> inputs{11, 22, 33};
  const auto result = Explorer::explore(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        AnonymousSetConsensus algorithm(3, /*slots=*/3);
        for (const int p : {0, 2}) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(algorithm.propose(ctx, p, 900 + p,
                                         inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver, 5'000'000);
        check_decided_if_done(run);
        check_validity(inputs, run.decisions);
        check_k_agreement(run.decisions, 2);
      },
      Explorer::Options{.max_executions = 30'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Algorithm3, NonRelaxedVariantAlsoWorks) {
  // Backed by full WRN_k objects instead of RlxWRN.
  const int k = 3;
  std::vector<Value> inputs{5, 6, 7};
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        AnonymousSetConsensus algorithm(k, k, FunctionFamily::kCovering,
                                        /*relaxed=*/false);
        for (int p = 0; p < k; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(algorithm.propose(ctx, p, 100 + p,
                                         inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver, 5'000'000);
        check_all_done_and_decided(run);
        check_set_consensus(run, inputs, k - 1);
      },
      300);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Algorithm3, FullFamilyVariantWorks) {
  const int k = 3;
  std::vector<Value> inputs{5, 6, 7};
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        AnonymousSetConsensus algorithm(k, k, FunctionFamily::kFull);
        for (int p = 0; p < k; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(algorithm.propose(ctx, p, 100 + p,
                                         inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver, 20'000'000);
        check_all_done_and_decided(run);
        check_set_consensus(run, inputs, k - 1);
      },
      60);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Algorithm3, SoloParticipantDecidesOwnValue) {
  Runtime rt;
  AnonymousSetConsensus algorithm(3, 3);
  Value decided = kBottom;
  rt.add_process([&](Context& ctx) {
    decided = algorithm.propose(ctx, 0, 42, 1234);
  });
  RoundRobinDriver driver;
  rt.run(driver, 5'000'000);
  EXPECT_EQ(decided, 1234);
}

}  // namespace
}  // namespace subc
