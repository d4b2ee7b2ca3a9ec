// Experiment F4 — simulator micro-costs (google-benchmark).
//
// Establishes the throughput envelope of the substrate itself: fiber
// switches, kernel steps over base objects, the paper objects' operations,
// whole-algorithm runs and explorer execution rates (serial and parallel).
// These numbers bound how large the exhaustive experiments (T1, T5, T6)
// can be pushed. They print to stdout only: end-to-end explorer throughput
// and per-step costs are measured and gated by perfbench/.
#include <benchmark/benchmark.h>

#include "subc/algorithms/snapshot_impl.hpp"
#include "subc/algorithms/wrn_set_consensus.hpp"
#include "subc/objects/register.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/fiber.hpp"
#include "subc/runtime/runtime.hpp"
#include "subc/runtime/stepper.hpp"

namespace {

using namespace subc;

/// One process hammering a register with writes as a stepped machine — the
/// stepped-engine twin of BM_RegisterStep's fiber body.
struct SteppedWriterBody {
  Register<>* reg;
  std::int64_t batch;

  std::int64_t i_ = 0;

  void step(StepContext& ctx) {
    SUBC_STEP_BEGIN(ctx);
    for (i_ = 0; i_ < batch; ++i_) {
      SUBC_STEP_POINT(ctx, reg->oid(), AccessKind::kWrite);
      reg->step_write(ctx, i_);
    }
    SUBC_STEP_END(ctx);
  }
};

/// Kernel-free switch-resume machine: measures the duff's-device dispatch
/// itself (the stepped engine's analogue of one fiber switch).
struct RawSteppedMachine {
  std::uint32_t resume = 0;
  std::int64_t count = 0;

  void step() {
    switch (resume) {
      case 0:;
        for (;;) {
          ++count;
          resume = 1;
          return;
          case 1:;
        }
    }
  }
};

void BM_FiberSwitch(benchmark::State& state) {
  Fiber fiber([] {
    for (;;) {
      Fiber::yield();
    }
  });
  for (auto _ : state) {
    fiber.resume();
  }
  fiber.kill();
}
BENCHMARK(BM_FiberSwitch);

void BM_SteppedResume(benchmark::State& state) {
  // Raw resume cost of the stepped engine's state machine — the number to
  // hold against BM_FiberSwitch.
  RawSteppedMachine machine;
  for (auto _ : state) {
    machine.step();
    // Escape the machine state each iteration, or the whole resume loop
    // constant-folds away (the dispatch is ~1 ns; the optimizer sees
    // straight through it).
    benchmark::DoNotOptimize(machine.resume);
  }
  benchmark::DoNotOptimize(machine.count);
}
BENCHMARK(BM_SteppedResume);

void BM_RegisterStep(benchmark::State& state) {
  // One simulated process hammering a register; measures kernel step cost
  // (schedule + fiber switch + op body).
  const std::int64_t batch = 1000;
  for (auto _ : state) {
    state.PauseTiming();
    Runtime rt;
    Register<> reg(0);
    rt.add_process([&](Context& ctx) {
      for (std::int64_t i = 0; i < batch; ++i) {
        reg.write(ctx, i);
      }
    });
    RoundRobinDriver driver;
    state.ResumeTiming();
    rt.run(driver, batch + 10);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_RegisterStep);

void BM_SteppedRegisterStep(benchmark::State& state) {
  // BM_RegisterStep with the process hosted on the stepped engine: kernel
  // step cost with no stack switch, state block arena-carved.
  const std::int64_t batch = 1000;
  for (auto _ : state) {
    state.PauseTiming();
    Runtime rt;
    Register<> reg(0);
    rt.add_stepped(SteppedWriterBody{&reg, batch});
    RoundRobinDriver driver;
    state.ResumeTiming();
    rt.run(driver, batch + 10);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SteppedRegisterStep);

void BM_WrnOperation(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const std::int64_t batch = 1000;
  for (auto _ : state) {
    state.PauseTiming();
    Runtime rt;
    WrnObject wrn(k);
    rt.add_process([&](Context& ctx) {
      for (std::int64_t i = 0; i < batch; ++i) {
        wrn.wrn(ctx, static_cast<int>(i % k), i + 1);
      }
    });
    RoundRobinDriver driver;
    state.ResumeTiming();
    rt.run(driver, batch + 10);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_WrnOperation)->Arg(3)->Arg(8)->Arg(32);

void BM_SnapshotScanFromRegisters(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  const std::int64_t batch = 50;
  for (auto _ : state) {
    state.PauseTiming();
    Runtime rt;
    SnapshotFromRegisters<> snap(size, 0);
    rt.add_process([&](Context& ctx) {
      for (std::int64_t i = 0; i < batch; ++i) {
        benchmark::DoNotOptimize(snap.scan(ctx));
      }
    });
    RoundRobinDriver driver;
    state.ResumeTiming();
    rt.run(driver, batch * (2 * size + 4));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SnapshotScanFromRegisters)->Arg(4)->Arg(16);

void BM_Algorithm2FullRun(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Runtime rt;
    WrnSetConsensus algorithm(k);
    for (int p = 0; p < k; ++p) {
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(algorithm.propose(ctx, p, 100 + p));
      });
    }
    RandomDriver driver(seed++);
    rt.run(driver);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Algorithm2FullRun)->Arg(3)->Arg(8)->Arg(16);

ExecutionBody explorer_rate_body() {
  return [](SchedulePolicy& driver) {
    Runtime rt;
    Register<> reg(0);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&](Context& ctx) {
        reg.read(ctx);
        reg.write(ctx, 1);
      });
    }
    rt.run(driver);
  };
}

void BM_ExplorerExecutionRate(benchmark::State& state) {
  // Executions per second of the stateless explorer on a 3-process world.
  // Arg(0) = worker threads (1 = the serial path).
  Explorer::Options opts;
  opts.max_executions = 2000;
  // Raw enumeration rate is the quantity under test: with reduction on the
  // tree shrinks and items-processed would no longer equal executions.
  opts.reduction = Reduction::kNone;
  opts.threads = static_cast<int>(state.range(0));
  const ExecutionBody body = explorer_rate_body();
  std::int64_t executions = 0;
  for (auto _ : state) {
    const auto result = Explorer::explore(body, opts);
    executions += result.executions;
    benchmark::DoNotOptimize(result.executions);
  }
  // The whole tree is 90 executions, well inside the budget: count the
  // executions the searches completed, not the budget.
  state.SetItemsProcessed(executions);
}
BENCHMARK(BM_ExplorerExecutionRate)->Arg(1)->Arg(0);  // 0 = all hw threads

void BM_RandomSweepRate(benchmark::State& state) {
  // Arg(0) = worker threads as above.
  const int threads =
      static_cast<int>(state.range(0)) == 0
          ? Explorer::resolve_threads(0)
          : static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto result = RandomSweep::run(
        [](SchedulePolicy& driver) {
          Runtime rt;
          WrnSetConsensus algorithm(4);
          for (int p = 0; p < 4; ++p) {
            rt.add_process([&, p](Context& ctx) {
              ctx.decide(algorithm.propose(ctx, p, 10 + p));
            });
          }
          rt.run(driver);
        },
        200, 1, threads);
    benchmark::DoNotOptimize(result.runs);
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_RandomSweepRate)->Arg(1)->Arg(0);

}  // namespace

BENCHMARK_MAIN();
