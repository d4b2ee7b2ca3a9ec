// Tests for the one-shot immediate snapshot (participating set): the three
// defining properties checked exhaustively for small n, plus the derived
// self-electing election.
#include "subc/algorithms/immediate_snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "subc/core/tasks.hpp"
#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

using Member = ImmediateSnapshot::Member;

std::vector<int> slots_of(const std::vector<Member>& view) {
  std::vector<int> slots;
  for (const Member& m : view) {
    slots.push_back(m.slot);
  }
  std::sort(slots.begin(), slots.end());
  return slots;
}

bool subset(const std::vector<int>& a, const std::vector<int>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

void check_is_properties(const std::vector<std::vector<Member>>& views) {
  const int n = static_cast<int>(views.size());
  std::vector<std::vector<int>> sets;
  for (const auto& view : views) {
    sets.push_back(slots_of(view));
  }
  for (int i = 0; i < n; ++i) {
    if (sets[static_cast<std::size_t>(i)].empty()) {
      continue;  // did not participate / still running
    }
    // Self-inclusion.
    if (!std::binary_search(sets[static_cast<std::size_t>(i)].begin(),
                            sets[static_cast<std::size_t>(i)].end(), i)) {
      throw SpecViolation("self-inclusion violated for " + std::to_string(i));
    }
    for (int j = 0; j < n; ++j) {
      if (i == j || sets[static_cast<std::size_t>(j)].empty()) {
        continue;
      }
      // Containment: comparable views.
      const auto& si = sets[static_cast<std::size_t>(i)];
      const auto& sj = sets[static_cast<std::size_t>(j)];
      if (!subset(si, sj) && !subset(sj, si)) {
        throw SpecViolation("containment violated between " +
                            std::to_string(i) + " and " + std::to_string(j));
      }
      // Immediacy: j ∈ S_i ⇒ S_j ⊆ S_i.
      if (std::binary_search(si.begin(), si.end(), j) && !subset(sj, si)) {
        throw SpecViolation("immediacy violated: " + std::to_string(j) +
                            " in view of " + std::to_string(i));
      }
    }
  }
}

class ImmediateSnapshotSweep : public ::testing::TestWithParam<int> {};

TEST_P(ImmediateSnapshotSweep, ThreePropertiesHoldOnEverySchedule) {
  const int n = GetParam();
  const ExecutionBody body = [n](SchedulePolicy& driver) {
    Runtime rt;
    ImmediateSnapshot is(n);
    std::vector<std::vector<Member>> views(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      rt.add_process([&, p](Context& ctx) {
        views[static_cast<std::size_t>(p)] =
            is.participate(ctx, p, 100 + p);
      });
    }
    rt.run(driver);
    check_is_properties(views);
    // Views carry the announced values.
    for (int p = 0; p < n; ++p) {
      for (const Member& m : views[static_cast<std::size_t>(p)]) {
        if (m.value != 100 + m.slot) {
          throw SpecViolation("view carries a wrong value");
        }
      }
    }
  };
  if (n <= 3) {
    const auto result =
        Explorer::explore(body, Explorer::Options{.max_executions = 400'000});
    EXPECT_TRUE(result.ok()) << *result.violation;
    if (n <= 2) {
      EXPECT_TRUE(result.complete);
    }
  } else {
    const auto result = RandomSweep::run(body, 2000);
    EXPECT_TRUE(result.ok()) << *result.violation;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ImmediateSnapshotSweep,
                         ::testing::Values(1, 2, 3, 4, 6));

TEST(ImmediateSnapshot, SoloParticipantSeesOnlyItself) {
  Runtime rt;
  ImmediateSnapshot is(4);
  std::vector<Member> view;
  rt.add_process([&](Context& ctx) { view = is.participate(ctx, 2, 7); });
  RoundRobinDriver driver;
  rt.run(driver);
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view[0], (Member{2, 7}));
}

TEST(ImmediateSnapshot, SequentialParticipantsSeeGrowingViews) {
  Runtime rt;
  ImmediateSnapshot is(3);
  std::vector<std::size_t> sizes;
  for (int p = 0; p < 3; ++p) {
    rt.add_process([&, p](Context& ctx) {
      sizes.push_back(is.participate(ctx, p, 10 + p).size());
    });
  }
  // Strictly sequential: each finishes before the next starts.
  std::vector<int> script;
  for (int p = 0; p < 3; ++p) {
    for (int s = 0; s < 40; ++s) {
      script.push_back(p);
    }
  }
  ScriptedDriver driver(script);
  rt.run(driver);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(ImmediateSnapshot, SimultaneousBlockSeesEverybody) {
  // Fully lock-step round-robin: all n descend together and land at level
  // n together — everyone's view is everybody.
  const int n = 3;
  Runtime rt;
  ImmediateSnapshot is(n);
  std::vector<std::vector<Member>> views(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    rt.add_process([&, p](Context& ctx) {
      views[static_cast<std::size_t>(p)] = is.participate(ctx, p, p + 1);
    });
  }
  RoundRobinDriver driver;
  rt.run(driver);
  for (int p = 0; p < n; ++p) {
    EXPECT_EQ(views[static_cast<std::size_t>(p)].size(),
              static_cast<std::size_t>(n));
  }
}

TEST(ImmediateSnapshot, ParameterValidation) {
  EXPECT_THROW(ImmediateSnapshot(0), SimError);
  Runtime rt;
  ImmediateSnapshot is(2);
  rt.add_process([&](Context& ctx) {
    EXPECT_THROW(is.participate(ctx, 2, 1), SimError);
    EXPECT_THROW(is.participate(ctx, 0, kBottom), SimError);
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

class SelfElectionSweep : public ::testing::TestWithParam<int> {};

TEST_P(SelfElectionSweep, ElectionIsValidAndSelfElecting) {
  // The [9] mechanism: min-of-view election satisfies validity and
  // self-election on every schedule.
  const int n = GetParam();
  const ExecutionBody body = [n](SchedulePolicy& driver) {
    Runtime rt;
    SelfElectingElection election(n);
    std::vector<int> participants;
    for (int p = 0; p < n; ++p) {
      participants.push_back(p);
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(static_cast<Value>(election.elect(ctx, p)));
      });
    }
    const auto run = rt.run(driver);
    check_all_done_and_decided(run);
    check_election_validity(run.decisions, participants);
    check_self_election(run.decisions);
  };
  if (n <= 3) {
    const auto result =
        Explorer::explore(body, Explorer::Options{.max_executions = 400'000});
    EXPECT_TRUE(result.ok()) << *result.violation;
  } else {
    const auto result = RandomSweep::run(body, 1500);
    EXPECT_TRUE(result.ok()) << *result.violation;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SelfElectionSweep,
                         ::testing::Values(2, 3, 4, 5));

}  // namespace
}  // namespace subc
