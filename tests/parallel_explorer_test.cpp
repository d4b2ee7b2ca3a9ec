// Tests for the parallel work-sharing explorer: serial/parallel equivalence
// of execution counts and violation reports at several thread counts and
// frontier depths, deterministic (canonically least) violation selection,
// cooperative cancellation, shared budgets, the prune hook, and the parallel
// random sweep. This binary is also the ThreadSanitizer target guarding the
// work-queue and cancellation paths (scripts/check.sh builds it with
// -fsanitize=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "subc/checking/violation_log.hpp"
#include "subc/objects/register.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/runtime.hpp"

namespace subc {
namespace {

// A thread-safe world: `procs` processes each doing `steps` register reads.
// Pure per-execution state, so it can run under any thread count.
ExecutionBody grid_world(int procs, int steps) {
  return [procs, steps](SchedulePolicy& driver) {
    Runtime rt;
    Register<> reg(0);
    for (int p = 0; p < procs; ++p) {
      rt.add_process([&](Context& ctx) {
        for (int s = 0; s < steps; ++s) {
          reg.read(ctx);
        }
      });
    }
    rt.run(driver);
  };
}

// A world with a spec violation buried deep in the tree: it fires only when
// every one of `procs` processes observes a fully written array, which
// requires a specific class of late schedules — the violating decision
// strings are far from the DFS root.
ExecutionBody deep_violation_world(int procs, int steps) {
  return [procs, steps](SchedulePolicy& driver) {
    Runtime rt;
    Register<> reg(kBottom);
    std::vector<int> saw_written(static_cast<std::size_t>(procs), 0);
    for (int p = 0; p < procs; ++p) {
      rt.add_process([&, p](Context& ctx) {
        for (int s = 0; s < steps; ++s) {
          if (reg.read(ctx) != kBottom) {
            saw_written[static_cast<std::size_t>(p)] = 1;
          }
          reg.write(ctx, p);
        }
      });
    }
    rt.run(driver);
    int total = 0;
    for (const int saw : saw_written) {
      total += saw;
    }
    if (total == procs) {
      throw SpecViolation("every process saw a written value");
    }
  };
}

// Count-asserting tests pin `reduction = kNone`: they check the raw
// enumeration and partition machinery on known interleaving counts. The
// sleep-set composition with threading is covered separately below and in
// reduction_test.cpp.
Explorer::Options unreduced() {
  Explorer::Options opts;
  opts.reduction = Reduction::kNone;
  return opts;
}

TEST(ParallelExplorer, MatchesSerialCountsAtEveryThreadCount) {
  const ExecutionBody body = grid_world(3, 3);
  const auto serial = Explorer::explore(body, unreduced());
  ASSERT_TRUE(serial.complete);
  ASSERT_EQ(serial.executions, 1680);  // 9!/(3!3!3!)
  for (const int threads : {2, 3, 4, 8}) {
    Explorer::Options opts = unreduced();
    opts.threads = threads;
    const auto parallel = Explorer::explore(body, opts);
    EXPECT_TRUE(parallel.complete) << "threads=" << threads;
    EXPECT_EQ(parallel.executions, serial.executions) << "threads=" << threads;
    EXPECT_TRUE(parallel.ok()) << "threads=" << threads;
  }
}

TEST(ParallelExplorer, MatchesSerialCountsAtEveryFrontierDepth) {
  const ExecutionBody body = grid_world(2, 4);
  const auto serial = Explorer::explore(body, unreduced());
  ASSERT_TRUE(serial.complete);
  ASSERT_EQ(serial.executions, 70);  // 8!/(4!4!)
  for (const int depth : {1, 2, 3, 5, 7, 20}) {
    Explorer::Options opts = unreduced();
    opts.threads = 4;
    opts.frontier_depth = depth;
    const auto parallel = Explorer::explore(body, opts);
    EXPECT_TRUE(parallel.complete) << "depth=" << depth;
    EXPECT_EQ(parallel.executions, serial.executions) << "depth=" << depth;
  }
}

TEST(ParallelExplorer, SleepSetCountsBitIdenticalAcrossThreadsAndDepths) {
  // A mixed read/write world with no violation: the reduced search must
  // report identical executions/reduced_subtrees/complete at every thread
  // count and frontier depth, and strictly fewer executions than raw
  // enumeration.
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> regs(3, kBottom);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        regs[p].write(ctx, p);
        regs[(p + 1) % 3].read(ctx);
        regs[p].write(ctx, p + 10);
      });
    }
    rt.run(driver);
  };
  const auto raw = Explorer::explore(body, unreduced());
  ASSERT_TRUE(raw.complete);
  const auto serial = Explorer::explore(body);
  ASSERT_TRUE(serial.complete);
  EXPECT_LT(serial.executions, raw.executions);
  EXPECT_GT(serial.reduced_subtrees, 0);
  for (const int threads : {2, 4, 8}) {
    for (const int depth : {0, 2, 5}) {
      Explorer::Options opts;
      opts.threads = threads;
      opts.frontier_depth = depth;
      const auto parallel = Explorer::explore(body, opts);
      EXPECT_TRUE(parallel.complete)
          << "threads=" << threads << " depth=" << depth;
      EXPECT_EQ(parallel.executions, serial.executions)
          << "threads=" << threads << " depth=" << depth;
      EXPECT_EQ(parallel.reduced_subtrees, serial.reduced_subtrees)
          << "threads=" << threads << " depth=" << depth;
    }
  }
}

TEST(ParallelExplorer, ObjectNondeterminismCountsMatchSerial) {
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    Register<> reg(0);
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&](Context& ctx) {
        reg.read(ctx);
        ctx.choose(3);
        reg.read(ctx);
      });
    }
    rt.run(driver);
  };
  const auto serial = Explorer::explore(body);
  Explorer::Options opts;
  opts.threads = 4;
  const auto parallel = Explorer::explore(body, opts);
  ASSERT_TRUE(serial.complete);
  EXPECT_TRUE(parallel.complete);
  EXPECT_EQ(parallel.executions, serial.executions);
}

TEST(ParallelExplorer, ReportsCanonicallyLeastViolationAtAnyThreadCount) {
  const ExecutionBody body = deep_violation_world(3, 2);
  const auto serial = Explorer::explore(body);
  ASSERT_FALSE(serial.ok());
  for (const int threads : {2, 4, 8}) {
    for (const int depth : {0, 2, 4}) {
      Explorer::Options opts;
      opts.threads = threads;
      opts.frontier_depth = depth;
      const auto parallel = Explorer::explore(body, opts);
      ASSERT_FALSE(parallel.ok())
          << "threads=" << threads << " depth=" << depth;
      EXPECT_EQ(*parallel.violation, *serial.violation);
      // The canonically least trace is independent of thread timing, so
      // executions-before-violation is bit-identical to the serial count —
      // and so is the reduction-skip tally (this runs under the default
      // sleep-set reduction).
      EXPECT_EQ(parallel.executions, serial.executions)
          << "threads=" << threads << " depth=" << depth;
      EXPECT_EQ(parallel.reduced_subtrees, serial.reduced_subtrees)
          << "threads=" << threads << " depth=" << depth;
      EXPECT_EQ(format_trace(parallel.violating_trace),
                format_trace(serial.violating_trace))
          << "threads=" << threads << " depth=" << depth;
    }
  }
}

TEST(ParallelExplorer, ViolatingTraceFromParallelRunReplays) {
  const ExecutionBody body = deep_violation_world(3, 2);
  Explorer::Options opts;
  opts.threads = 4;
  const auto result = Explorer::explore(body, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_THROW(Explorer::replay(body, result.violating_trace), SpecViolation);
}

TEST(ParallelExplorer, SharedBudgetStopsAtExactlyMaxExecutions) {
  Explorer::Options opts = unreduced();
  opts.threads = 4;
  opts.max_executions = 100;
  const auto result = Explorer::explore(grid_world(4, 3), opts);
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.executions, 100);
}

TEST(ParallelExplorer, PruneHookSkipsSubtreesIdenticallyToSerial) {
  // Prune every subtree whose first recorded decision is the highest-index
  // option: a symmetry-style reduction a user might write.
  const Explorer::PruneFn prune =
      [](std::span<const ReplayDriver::Decision> prefix) {
        return prefix.size() == 1 &&
               prefix[0].chosen + 1 == prefix[0].arity;
      };
  Explorer::Options serial_opts;
  serial_opts.prune = prune;
  const auto serial = Explorer::explore(grid_world(3, 2), serial_opts);
  ASSERT_TRUE(serial.complete);
  EXPECT_GT(serial.pruned_subtrees, 0);
  // Unpruned total is 90; the pruned run must be strictly smaller.
  EXPECT_LT(serial.executions, 90);

  Explorer::Options par_opts = serial_opts;
  par_opts.threads = 4;
  const auto parallel = Explorer::explore(grid_world(3, 2), par_opts);
  EXPECT_TRUE(parallel.complete);
  EXPECT_EQ(parallel.executions, serial.executions);
  EXPECT_EQ(parallel.pruned_subtrees, serial.pruned_subtrees);
}

TEST(ParallelExplorer, OutcomeSetsMatchSerialWithSynchronizedBody) {
  // The parallel explorer visits exactly the executions the serial one does
  // (not just the same number): collect observable outcomes under a mutex
  // and compare the sets.
  const auto run = [](int threads) {
    std::mutex mu;
    std::set<std::vector<Value>> outcomes;
    Explorer::Options opts = unreduced();
    opts.threads = threads;
    const auto result = Explorer::explore(
        [&](SchedulePolicy& driver) {
          Runtime rt;
          Register<> reg(kBottom);
          std::vector<Value> reads(2, kBottom);
          for (int p = 0; p < 2; ++p) {
            rt.add_process([&, p](Context& ctx) {
              reads[static_cast<std::size_t>(p)] = reg.read(ctx);
              reg.write(ctx, p);
            });
          }
          rt.run(driver);
          const std::lock_guard<std::mutex> lock(mu);
          outcomes.insert(reads);
        },
        opts);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.executions, 6);
    return outcomes;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(ParallelRandomSweep, CleanSweepCountsAllRuns) {
  const auto result = RandomSweep::run(
      [](SchedulePolicy& driver) {
        Runtime rt;
        Register<> reg(0);
        rt.add_process([&](Context& ctx) { reg.write(ctx, 1); });
        rt.run(driver);
      },
      500, /*first_seed=*/1, /*threads=*/4);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.runs, 500);
}

TEST(ParallelRandomSweep, ReportsLeastFailingSeedLikeSerial) {
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    Register<> reg(kBottom);
    rt.add_process([&](Context& ctx) { reg.write(ctx, 1); });
    rt.add_process([&](Context& ctx) {
      if (reg.read(ctx) == kBottom) {
        throw SpecViolation("bad order");
      }
    });
    rt.run(driver);
  };
  const auto serial = RandomSweep::run(body, 400);
  ASSERT_FALSE(serial.ok());
  for (const int threads : {2, 4, 8}) {
    const auto parallel = RandomSweep::run(body, 400, 1, threads);
    ASSERT_FALSE(parallel.ok()) << "threads=" << threads;
    EXPECT_EQ(*parallel.failing_seed, *serial.failing_seed);
    EXPECT_EQ(parallel.runs, serial.runs);
    EXPECT_EQ(*parallel.violation, *serial.violation);
  }
}

TEST(ViolationLog, KeepsLeastIndexUnderConcurrentReports) {
  ViolationLog log;
  EXPECT_TRUE(log.empty());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&log, t]() {
      for (std::uint64_t i = 0; i < 200; ++i) {
        log.report(static_cast<std::uint64_t>(t) + 4 * i,
                   "violation " + std::to_string(t), {});
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const auto win = log.winner();
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(win->index, 0u);
  EXPECT_EQ(win->message, "violation 0");
  EXPECT_EQ(log.best_index(), 0u);
  EXPECT_EQ(log.total_reported(), 800);
}

TEST(ParallelExplorer, ThreadsZeroUsesHardwareConcurrency) {
  Explorer::Options opts = unreduced();
  opts.threads = 0;
  const auto result = Explorer::explore(grid_world(2, 2), opts);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.executions, 6);
  EXPECT_GE(Explorer::resolve_threads(0), 1);
}

}  // namespace
}  // namespace subc
