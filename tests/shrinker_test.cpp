// The schedule shrinker: delta-debugging violating decision strings down to
// locally-minimal reproducers, verified by replay.
#include <gtest/gtest.h>

#include "subc/objects/register.hpp"
#include "subc/objects/set_consensus_object.hpp"
#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

using Decision = ReplayDriver::Decision;

// A world whose violation needs one specific "bad" scheduling choice late
// in the run: p1 must read r after p0's second write. Random seeds find it
// with lots of irrelevant decisions in front; the minimal reproducer is
// much shorter.
ExecutionBody late_bug_world() {
  return [](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> noise(2, kBottom);
    Register<Value> r(0);
    Value seen = -1;
    rt.add_process([&](Context& ctx) {
      // Irrelevant decisions to give the shrinker something to cut.
      for (int i = 0; i < 3; ++i) {
        noise[0].write(ctx, i);
      }
      r.write(ctx, 1);
      r.write(ctx, 2);
    });
    rt.add_process([&](Context& ctx) {
      for (int i = 0; i < 3; ++i) {
        noise[1].write(ctx, i);
      }
      seen = r.read(ctx);
    });
    rt.run(driver);
    if (seen == 2) {
      throw SpecViolation("p1 observed the second write");
    }
  };
}

// Returns the violation message of replaying `trace`, if any.
std::optional<std::string> replay_outcome(const ExecutionBody& body,
                                          std::vector<Decision> trace) {
  try {
    Explorer::replay(body, std::move(trace));
  } catch (const std::exception& e) {
    return std::string(e.what());
  }
  return std::nullopt;
}

bool lex_less_or_eq(const std::vector<Decision>& a,
                    const std::vector<Decision>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].chosen != b[i].chosen) {
      return a[i].chosen < b[i].chosen;
    }
  }
  return a.size() <= b.size();
}

// Checks local minimality directly against the definition: no truncation
// and no single lowering (suffix dropped) still fails.
void expect_locally_minimal(const ExecutionBody& body,
                            const std::vector<Decision>& trace) {
  for (std::size_t len = 0; len < trace.size(); ++len) {
    std::vector<Decision> cand(trace.begin(),
                               trace.begin() + static_cast<std::ptrdiff_t>(len));
    for (Decision& d : cand) {
      d.enabled = 0;
      d.sleep = 0;
    }
    ReplayDriver driver(cand);
    bool failed = false;
    try {
      body(driver);
    } catch (const std::exception&) {
      failed = true;
    }
    if (failed) {
      // A shorter prefix that still fails must canonicalize to the trace
      // itself (its zero-extension is the minimal reproducer already).
      EXPECT_TRUE(lex_less_or_eq(trace, driver.trace()))
          << "truncation to " << len << " gives a smaller reproducer";
    }
  }
  for (std::size_t pos = 0; pos < trace.size(); ++pos) {
    for (std::uint32_t v = 0; v < trace[pos].chosen; ++v) {
      std::vector<Decision> cand(
          trace.begin(), trace.begin() + static_cast<std::ptrdiff_t>(pos) + 1);
      cand[pos].chosen = v;
      for (Decision& d : cand) {
        d.enabled = 0;
        d.sleep = 0;
      }
      ReplayDriver driver(std::move(cand));
      bool failed = false;
      try {
        body(driver);
      } catch (const std::exception&) {
        failed = true;
      }
      EXPECT_FALSE(failed) << "lowering position " << pos << " to " << v
                           << " still fails: not locally minimal";
    }
  }
}

TEST(Shrinker, SeededViolationShrinksAndReplays) {
  const ExecutionBody body = late_bug_world();
  // Find a violating trace with the unreduced exhaustive search (its first
  // hit is already lex-least, so shrink from a random find instead: sweep
  // seeds until one fails, replay it under a ReplayDriver to capture the
  // decision string).
  const auto sweep = RandomSweep::run(body, 500);
  ASSERT_FALSE(sweep.ok()) << "expected some random seed to hit the bug";

  // Capture the violating decision string by re-running the failing seed
  // under a recording ReplayDriver... the explorer already does exactly
  // this, so use it with shrinking enabled and a violation-first order.
  Explorer::Options opts;
  opts.reduction = Reduction::kNone;
  opts.shrink_violations = true;
  const auto result = Explorer::explore(body, opts);
  ASSERT_FALSE(result.ok());

  // The shrunken trace still reproduces the violation...
  const auto replayed = replay_outcome(body, result.violating_trace);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(*replayed, *result.violation);
  // ...and is locally minimal by the definition.
  expect_locally_minimal(body, result.violating_trace);
}

TEST(Shrinker, ShrinkIsIdempotent) {
  const ExecutionBody body = late_bug_world();
  Explorer::Options opts;
  opts.reduction = Reduction::kNone;
  const auto result = Explorer::explore(body, opts);
  ASSERT_FALSE(result.ok());
  const auto once = Explorer::shrink(body, result.violating_trace);
  const auto twice = Explorer::shrink(body, once);
  ASSERT_EQ(once.size(), twice.size());
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(once[i].chosen, twice[i].chosen) << "position " << i;
    EXPECT_EQ(once[i].arity, twice[i].arity) << "position " << i;
  }
}

TEST(Shrinker, ShrinksReductionRecordedTraces) {
  // Traces recorded under sleep-set reduction carry enabled/sleep metadata;
  // the shrinker must strip it and still produce a locally-minimal
  // reproducer.
  const ExecutionBody body = late_bug_world();
  Explorer::Options opts;
  opts.reduction = Reduction::kSleepSets;
  const auto result = Explorer::explore(body, opts);
  ASSERT_FALSE(result.ok());
  const auto shrunk = Explorer::shrink(body, result.violating_trace);
  EXPECT_TRUE(replay_outcome(body, shrunk).has_value());
  expect_locally_minimal(body, shrunk);
}

TEST(Shrinker, CleanTraceReturnedCanonicalized) {
  // A non-violating trace is handed back (canonical form) unchanged in
  // meaning: replaying it still succeeds.
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> regs(2, kBottom);
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
    }
    rt.run(driver);
  };
  const auto shrunk = Explorer::shrink(body, {});
  EXPECT_FALSE(replay_outcome(body, shrunk).has_value());
}

TEST(Shrinker, MinimizesObjectNondeterminismToo) {
  // The violation needs choose() == 1 at the set-consensus object; the
  // shrinker must keep that decision while zeroing the schedule noise.
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    SetConsensusObject obj(3, 2);
    std::array<Value, 2> got{kBottom, kBottom};
    rt.add_process([&](Context& ctx) { got[0] = obj.propose(ctx, 10); });
    rt.add_process([&](Context& ctx) { got[1] = obj.propose(ctx, 20); });
    rt.run(driver);
    if (got[0] != kBottom && got[1] != kBottom && got[0] != got[1]) {
      throw SpecViolation("the two proposes disagreed");
    }
  };
  Explorer::Options opts;
  opts.reduction = Reduction::kNone;
  opts.shrink_violations = true;
  const auto result = Explorer::explore(body, opts);
  ASSERT_FALSE(result.ok());  // k=2 set consensus may disagree
  const auto replayed = replay_outcome(body, result.violating_trace);
  ASSERT_TRUE(replayed.has_value());
  expect_locally_minimal(body, result.violating_trace);
}

}  // namespace
}  // namespace subc
