// Stateful exploration (Explorer::Options::stateful): the kernel's
// incremental world-state fingerprint plus the visited-(state, sleep-set)
// cache. The load-bearing claims under test:
//   - on convergent worlds the search takes cuts and runs strictly fewer
//     executions, with the verdict and completeness of the plain search;
//   - violations are still found, and the reported trace replays and
//     shrinks (stateful never hides a bug — soundness);
//   - serial stateful searches are fully deterministic;
//   - parallel stateful searches reach the same verdict as serial ones;
//   - worlds stepping through objects that do not report fingerprints
//     degrade to zero cuts (the poison rule), never to a wrong verdict;
//   - the new knobs are validated, and checkpoints follow the documented
//     cold-restart rule (visited set not serialized; stateful echo matched
//     on resume);
//   - every search releases its visited set: back-to-back default-capacity
//     searches repeat their tallies without growing peak memory.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <string>

#include "subc/checking/checkpoint.hpp"
#include "subc/objects/register.hpp"
#include "subc/objects/test_and_set.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/runtime.hpp"

namespace subc {
namespace {

// A convergent world: each process writes its own register, then the shared
// last-writer-wins register. Many interleavings collapse onto the same
// world state (the shared cell only remembers its last writer), so the
// visited set should cut hard.
ExecutionBody mixed_body(int procs) {
  return [procs](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> own(static_cast<std::size_t>(procs), kBottom);
    Register<> shared(kBottom);
    for (int p = 0; p < procs; ++p) {
      rt.add_process([&, p](Context& ctx) {
        own[p].write(ctx, p);
        shared.write(ctx, p);
        own[p].write(ctx, 100 + p);
      });
    }
    rt.run(driver);
  };
}

// The classic lost update on a ported register: schedules where the reads
// overlap lose an increment, and the body flags exactly those.
ExecutionBody lost_update_body() {
  return [](SchedulePolicy& driver) {
    Runtime rt;
    Register<> counter(0);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&](Context& ctx) {
        const Value seen = counter.read(ctx);
        counter.write(ctx, seen + 1);
      });
    }
    rt.run(driver);
    if (counter.peek() != 3) {
      throw SpecViolation("lost update: counter ended at " +
                          to_string(counter.peek()));
    }
  };
}

// TestAndSet never reports a fingerprint: every granted step through it is
// silent, which poisons the execution's fingerprint (hashing.hpp).
ExecutionBody unported_body() {
  return [](SchedulePolicy& driver) {
    Runtime rt;
    TestAndSet tas;
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&](Context& ctx) { (void)tas.test_and_set(ctx); });
    }
    rt.run(driver);
  };
}

// Peak resident set size in KiB (VmHWM in /proc/self/status, Linux).
std::int64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoll(line.substr(6));
    }
  }
  return -1;
}

Explorer::Result explore(const ExecutionBody& body, bool stateful,
                         Reduction reduction = Reduction::kSleepSets,
                         int threads = 1, int max_crashes = 0) {
  Explorer::Options opts;
  opts.stateful = stateful;
  opts.reduction = reduction;
  opts.threads = threads;
  opts.max_crashes = max_crashes;
  if (max_crashes > 0) {
    opts.step_quota = 100'000;
  }
  return Explorer::explore(body, opts);
}

TEST(StatefulExploration, ConvergentWorldCutsAndAgreesWithStateless) {
  const ExecutionBody body = mixed_body(3);
  for (const Reduction reduction :
       {Reduction::kNone, Reduction::kSleepSets}) {
    SCOPED_TRACE(reduction == Reduction::kNone ? "none" : "sleep");
    const auto plain = explore(body, /*stateful=*/false, reduction);
    const auto st = explore(body, /*stateful=*/true, reduction);
    EXPECT_TRUE(plain.ok());
    EXPECT_TRUE(st.ok());
    EXPECT_TRUE(plain.complete);
    EXPECT_TRUE(st.complete);
    EXPECT_GT(st.stateful_cuts, 0);
    EXPECT_GT(st.stateful_states, 0);
    EXPECT_LT(st.executions, plain.executions);
    EXPECT_EQ(plain.stateful_cuts, 0);
    EXPECT_EQ(plain.stateful_states, 0);
  }
}

TEST(StatefulExploration, SerialSearchIsDeterministic) {
  const ExecutionBody body = mixed_body(3);
  const auto a = explore(body, /*stateful=*/true);
  const auto b = explore(body, /*stateful=*/true);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.stateful_cuts, b.stateful_cuts);
  EXPECT_EQ(a.stateful_states, b.stateful_states);
  EXPECT_EQ(a.reduced_subtrees, b.reduced_subtrees);
  EXPECT_EQ(a.complete, b.complete);
}

TEST(StatefulExploration, ViolationIsFoundReplaysAndShrinks) {
  const ExecutionBody body = lost_update_body();
  const auto plain = explore(body, /*stateful=*/false);
  const auto st = explore(body, /*stateful=*/true);
  ASSERT_TRUE(plain.violation.has_value());
  ASSERT_TRUE(st.violation.has_value());
  // The canonical violation may differ from the plain search's, but it must
  // replay deterministically...
  EXPECT_THROW(Explorer::replay(body, st.violating_trace), SpecViolation);
  // ...and delta-debug to a reproducer that still replays.
  const auto shrunk = Explorer::shrink(body, st.violating_trace);
  EXPECT_LE(shrunk.size(), st.violating_trace.size());
  EXPECT_THROW(Explorer::replay(body, shrunk), SpecViolation);
}

TEST(StatefulExploration, ParallelVerdictMatchesSerial) {
  // Parallel stateful searches share one visited set, so the cut/execution
  // split is timing-dependent — but the verdict and completeness must match
  // the serial search at every thread count.
  for (const ExecutionBody& body : {mixed_body(3), lost_update_body()}) {
    const auto serial = explore(body, /*stateful=*/true);
    const auto par =
        explore(body, /*stateful=*/true, Reduction::kSleepSets, /*threads=*/4);
    EXPECT_EQ(par.ok(), serial.ok());
    EXPECT_EQ(par.complete, serial.complete);
    if (par.violation.has_value()) {
      EXPECT_THROW(Explorer::replay(body, par.violating_trace), SpecViolation);
    }
  }
}

TEST(StatefulExploration, CrashBranchingStillAgrees) {
  const ExecutionBody body = mixed_body(2);
  const auto plain =
      explore(body, /*stateful=*/false, Reduction::kSleepSets, 1,
              /*max_crashes=*/1);
  const auto st = explore(body, /*stateful=*/true, Reduction::kSleepSets, 1,
                          /*max_crashes=*/1);
  EXPECT_EQ(st.ok(), plain.ok());
  EXPECT_EQ(st.complete, plain.complete);
  EXPECT_GT(st.stateful_cuts, 0);
  EXPECT_LT(st.executions, plain.executions);
}

TEST(StatefulExploration, UnportedObjectDegradesToZeroCuts) {
  const ExecutionBody body = unported_body();
  const auto plain = explore(body, /*stateful=*/false);
  const auto st = explore(body, /*stateful=*/true);
  // The poison rule: silent steps invalidate the fingerprint, so no cuts are
  // taken and the search degrades to the plain one — same tallies, never a
  // wrong verdict.
  EXPECT_EQ(st.stateful_cuts, 0);
  EXPECT_EQ(st.executions, plain.executions);
  EXPECT_EQ(st.reduced_subtrees, plain.reduced_subtrees);
  EXPECT_EQ(st.ok(), plain.ok());
  EXPECT_EQ(st.complete, plain.complete);
}

TEST(StatefulExploration, TinyCapacityStaysSound) {
  // capacity=1 gives the minimum table; once it saturates the search keeps
  // exploring without cuts. Verdict and completeness must be unaffected.
  const ExecutionBody body = mixed_body(3);
  Explorer::Options opts;
  opts.stateful = true;
  opts.stateful_capacity = 1;
  const auto st = Explorer::explore(body, opts);
  const auto plain = explore(body, /*stateful=*/false);
  EXPECT_EQ(st.ok(), plain.ok());
  EXPECT_EQ(st.complete, plain.complete);
  EXPECT_LE(st.executions, plain.executions);
}

TEST(StatefulExploration, OptionsAreValidated) {
  const ExecutionBody body = mixed_body(2);
  for (const std::int64_t capacity : {std::int64_t{0}, std::int64_t{-5}}) {
    Explorer::Options opts;
    opts.stateful = true;
    opts.stateful_capacity = capacity;
    try {
      Explorer::explore(body, opts);
      FAIL() << "capacity " << capacity << " accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("stateful_capacity"),
                std::string::npos)
          << e.what();
    }
  }
  {
    Explorer::Options opts;
    opts.stateful = true;
    opts.prune = [](std::span<const ReplayDriver::Decision>) { return false; };
    try {
      Explorer::explore(body, opts);
      FAIL() << "stateful+prune accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("prune"), std::string::npos)
          << e.what();
    }
  }
}

TEST(StatefulExploration, CheckpointFollowsColdRestartRule) {
  const std::string path = "stateful_ckpt_test.snapshot";
  std::remove(path.c_str());
  const ExecutionBody body = mixed_body(3);

  Explorer::Options opts;
  opts.stateful = true;
  opts.checkpoint_path = path;
  const auto first = Explorer::explore(body, opts);
  EXPECT_TRUE(first.complete);

  // The snapshot must echo the stateful flag and carry the cut tally.
  const ExplorerSnapshot snap = load_snapshot(path);
  EXPECT_TRUE(snap.stateful);
  EXPECT_EQ(snap.stateful_cuts, first.stateful_cuts);

  // Resuming a finished stateful search returns the saved Result verbatim.
  const auto resumed = Explorer::resume(body, path, opts);
  EXPECT_EQ(resumed.executions, first.executions);
  EXPECT_EQ(resumed.stateful_cuts, first.stateful_cuts);
  EXPECT_EQ(resumed.complete, first.complete);

  // Resuming with the stateful flag flipped is an option-echo mismatch.
  Explorer::Options mismatched = opts;
  mismatched.stateful = false;
  EXPECT_THROW(Explorer::resume(body, path, mismatched), SimError);

  std::remove(path.c_str());
}

TEST(StatefulExploration, BackToBackSearchesReleaseTheirVisitedSets) {
  // Each stateful explore builds a default-capacity visited set (2^21
  // slots, 16 MiB of address space) and must release it on return. A
  // hundred searches in a row repeat their tallies exactly, and peak RSS
  // grows by less than half of one eagerly zeroed table — a leaked mapping
  // (one search's touched pages each) or eager zeroing would exceed it.
  const ExecutionBody body = mixed_body(3);
  const std::int64_t peak_before = peak_rss_kib();
  ASSERT_GT(peak_before, 0);
  const auto first = explore(body, /*stateful=*/true);
  ASSERT_GT(first.stateful_cuts, 0);
  for (int i = 1; i < 100; ++i) {
    const auto r = explore(body, /*stateful=*/true);
    ASSERT_EQ(r.executions, first.executions) << i;
    ASSERT_EQ(r.stateful_cuts, first.stateful_cuts) << i;
    ASSERT_EQ(r.stateful_states, first.stateful_states) << i;
    ASSERT_EQ(r.reduced_subtrees, first.reduced_subtrees) << i;
    ASSERT_EQ(r.complete, first.complete) << i;
  }
  EXPECT_LT(peak_rss_kib() - peak_before, 8 * 1024);
}

}  // namespace
}  // namespace subc
