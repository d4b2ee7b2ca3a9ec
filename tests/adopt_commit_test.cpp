// Tests for adopt-commit: validity, coherence and convergence checked
// exhaustively, plus the classic usage pattern (repeated rounds stay safe).
#include "subc/algorithms/adopt_commit.hpp"

#include <gtest/gtest.h>

#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

using Outcome = AdoptCommit::Outcome;

void check_adopt_commit_properties(const std::vector<Outcome>& outcomes,
                                   const std::vector<Value>& proposals) {
  // Validity + coherence.
  Value committed = kBottom;
  for (const Outcome& o : outcomes) {
    if (o.value == kBottom) {
      continue;  // did not run
    }
    bool proposed = false;
    for (const Value p : proposals) {
      proposed = proposed || p == o.value;
    }
    if (!proposed) {
      throw SpecViolation("adopt-commit returned a non-proposal");
    }
    if (o.grade == Grade::kCommit) {
      if (committed != kBottom && committed != o.value) {
        throw SpecViolation("two different values committed");
      }
      committed = o.value;
    }
  }
  if (committed != kBottom) {
    for (const Outcome& o : outcomes) {
      if (o.value != kBottom && o.value != committed) {
        throw SpecViolation("coherence violated: commit " +
                            to_string(committed) + " vs return " +
                            to_string(o.value));
      }
    }
  }
}

TEST(AdoptCommit, PropertiesHoldExhaustivelyWithMixedProposals) {
  const std::vector<Value> proposals{10, 20, 10};
  const auto result = Explorer::explore(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        AdoptCommit ac(3);
        std::vector<Outcome> outcomes(3);
        for (int p = 0; p < 3; ++p) {
          rt.add_process([&, p](Context& ctx) {
            outcomes[static_cast<std::size_t>(p)] =
                ac.propose(ctx, p, proposals[static_cast<std::size_t>(p)]);
          });
        }
        rt.run(driver);
        check_adopt_commit_properties(outcomes, proposals);
      },
      Explorer::Options{.max_executions = 500'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

TEST(AdoptCommit, ConvergenceAllSameValueCommitsEverywhere) {
  const auto result = Explorer::explore(
      [](SchedulePolicy& driver) {
        Runtime rt;
        AdoptCommit ac(3);
        std::vector<Outcome> outcomes(3);
        for (int p = 0; p < 3; ++p) {
          rt.add_process([&, p](Context& ctx) {
            outcomes[static_cast<std::size_t>(p)] = ac.propose(ctx, p, 7);
          });
        }
        rt.run(driver);
        for (const Outcome& o : outcomes) {
          if (o != (Outcome{Grade::kCommit, 7})) {
            throw SpecViolation("convergence violated");
          }
        }
      },
      Explorer::Options{.max_executions = 500'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

TEST(AdoptCommit, SoloProposerCommits) {
  Runtime rt;
  AdoptCommit ac(4);
  rt.add_process([&](Context& ctx) {
    const Outcome o = ac.propose(ctx, 1, 99);
    EXPECT_EQ(o, (Outcome{Grade::kCommit, 99}));
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

TEST(AdoptCommit, ConflictCanForceAdoptButNeverInventValues) {
  // With two conflicting proposals, some schedule yields adopt grades; no
  // schedule yields two different commits. Also record that conflicts do
  // occur (the adopt branch is exercised).
  bool saw_adopt = false;
  const auto result = Explorer::explore(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        AdoptCommit ac(2);
        std::vector<Outcome> outcomes(2);
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) {
            outcomes[static_cast<std::size_t>(p)] =
                ac.propose(ctx, p, 100 + p);
          });
        }
        rt.run(driver);
        check_adopt_commit_properties(outcomes, {100, 101});
        for (const Outcome& o : outcomes) {
          saw_adopt = saw_adopt || o.grade == Grade::kAdopt;
        }
      },
      Explorer::Options{.max_executions = 500'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(saw_adopt);
}

TEST(AdoptCommit, RepeatedRoundsConvergeOnceAligned) {
  // The canonical usage: carry the adopted value into the next round; once
  // a round sees aligned proposals, everyone commits.
  Runtime rt;
  AdoptCommit round1(2);
  AdoptCommit round2(2);
  std::vector<Outcome> final_outcomes(2);
  rt.add_process([&](Context& ctx) {
    const Outcome o1 = round1.propose(ctx, 0, 1);
    final_outcomes[0] = round2.propose(ctx, 0, o1.value);
  });
  rt.add_process([&](Context& ctx) {
    const Outcome o1 = round1.propose(ctx, 1, 2);
    final_outcomes[1] = round2.propose(ctx, 1, o1.value);
  });
  // Sequential schedule: round 1 resolves to the first value; round 2
  // commits it.
  std::vector<int> script;
  for (int i = 0; i < 10; ++i) {
    script.push_back(0);
  }
  for (int i = 0; i < 10; ++i) {
    script.push_back(1);
  }
  ScriptedDriver driver(script);
  rt.run(driver);
  EXPECT_EQ(final_outcomes[0].value, final_outcomes[1].value);
}

TEST(AdoptCommit, ParameterValidation) {
  EXPECT_THROW(AdoptCommit(0), SimError);
  Runtime rt;
  AdoptCommit ac(2);
  rt.add_process([&](Context& ctx) {
    EXPECT_THROW(ac.propose(ctx, 0, kBottom), SimError);
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

}  // namespace
}  // namespace subc
