// Tests for wait-free (2k−1)-renaming: distinct names within {0..2k−2} for
// at most k participants, under exhaustive (small) and random schedules,
// with both snapshot backings.
#include "subc/algorithms/renaming.hpp"

#include <gtest/gtest.h>

#include "subc/core/tasks.hpp"
#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

// Both fields are `int` so the struct has no padding: gtest names each case
// by dumping the parameter's bytes, and a `bool` here left three
// uninitialised padding bytes that made the test names differ run to run.
struct Case {
  int participants;
  int register_snapshot;
};

class RenamingSweep : public ::testing::TestWithParam<Case> {};

TEST_P(RenamingSweep, UniqueNamesInRange) {
  const auto [k, reg_snap] = GetParam();
  const bool exhaustive = (k <= 2 && !reg_snap) || (k == 3 && !reg_snap);
  const ExecutionBody body = [k, reg_snap =
                                     reg_snap](SchedulePolicy& driver) {
    Runtime rt;
    SnapshotRenaming renaming(k, reg_snap);
    std::vector<Value> names(static_cast<std::size_t>(k), kBottom);
    for (int p = 0; p < k; ++p) {
      rt.add_process([&, p](Context& ctx) {
        // Original ids deliberately from a sparse space.
        names[static_cast<std::size_t>(p)] = renaming.rename(
            ctx, p, /*id=*/1000 + 37 * p);
      });
    }
    const auto result = rt.run(driver);
    for (int p = 0; p < k; ++p) {
      if (result.states[static_cast<std::size_t>(p)] != ProcState::kDone) {
        throw SpecViolation("renaming did not terminate");
      }
    }
    check_renaming(names, 2 * k - 1);
  };
  if (exhaustive) {
    const auto result = Explorer::explore(
        body, Explorer::Options{.max_executions = 60'000});
    EXPECT_TRUE(result.ok()) << *result.violation;
  } else {
    const auto result = RandomSweep::run(body, 300);
    EXPECT_TRUE(result.ok()) << *result.violation;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RenamingSweep,
    ::testing::Values(Case{2, false}, Case{3, false}, Case{4, false},
                      Case{5, false}, Case{2, true}, Case{3, true},
                      Case{4, true}));

TEST(Renaming, SubsetParticipationStaysInSubsetRange) {
  // Only 2 of 5 potential processes participate: names must fit in
  // {0..2·2−2} = {0,1,2}.
  const auto result = RandomSweep::run(
      [](SchedulePolicy& driver) {
        Runtime rt;
        SnapshotRenaming renaming(5);
        std::vector<Value> names(2, kBottom);
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) {
            names[static_cast<std::size_t>(p)] =
                renaming.rename(ctx, /*slot=*/p + 2, /*id=*/500 - p);
          });
        }
        rt.run(driver);
        check_renaming(names, 3);
      },
      300);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Renaming, SoloProcessGetsNameZero) {
  Runtime rt;
  SnapshotRenaming renaming(4);
  Value name = kBottom;
  rt.add_process([&](Context& ctx) { name = renaming.rename(ctx, 0, 99); });
  RoundRobinDriver driver;
  rt.run(driver);
  EXPECT_EQ(name, 0);
}

TEST(Renaming, OrderAdaptiveRanksBreakTies) {
  // Sequential arrivals: later processes see earlier proposals and shift.
  Runtime rt;
  SnapshotRenaming renaming(3);
  std::vector<Value> names(3, kBottom);
  for (int p = 0; p < 3; ++p) {
    rt.add_process([&, p](Context& ctx) {
      names[static_cast<std::size_t>(p)] = renaming.rename(ctx, p, 10 + p);
    });
  }
  RoundRobinDriver driver;
  rt.run(driver);
  check_renaming(names, 5);
}

TEST(Renaming, RejectsBottomId) {
  Runtime rt;
  SnapshotRenaming renaming(2);
  rt.add_process([&](Context& ctx) {
    EXPECT_THROW(renaming.rename(ctx, 0, kBottom), SimError);
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

}  // namespace
}  // namespace subc
