// Experiment F4 — simulator micro-costs (google-benchmark).
//
// Establishes the throughput envelope of the substrate itself: fiber
// switches, kernel steps over base objects, the paper objects' operations,
// whole-algorithm runs and explorer execution rates (serial and parallel).
// These numbers bound how large the exhaustive experiments (T1, T5, T6)
// can be pushed. After the google-benchmark suite, the explorer rates are
// re-measured directly and written to BENCH_F4.json.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "subc/algorithms/snapshot_impl.hpp"
#include "subc/algorithms/stepped_bodies.hpp"
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
  for (auto _ : state) {
    const auto result = Explorer::explore(body, opts);
    benchmark::DoNotOptimize(result.executions);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
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

// Per-step micro cells for the JSON artifact: fiber switch vs raw stepped
// resume (the engines' suspension primitives), and the full kernel step on
// each engine (schedule + suspension + op body, stepped state arena-carved).
subc_bench::Json measure_per_step_ns() {
  double fiber_switch_ns = 0;
  {
    Fiber fiber([] {
      for (;;) {
        Fiber::yield();
      }
    });
    const std::int64_t n = 2'000'000;
    for (int i = 0; i < 1000; ++i) {
      fiber.resume();  // warm the stacks
    }
    const subc_bench::Stopwatch sw;
    for (std::int64_t i = 0; i < n; ++i) {
      fiber.resume();
    }
    fiber_switch_ns = sw.ms() * 1e6 / static_cast<double>(n);
    fiber.kill();
  }
  double stepped_resume_ns = 0;
  {
    RawSteppedMachine machine;
    const std::int64_t n = 50'000'000;
    const subc_bench::Stopwatch sw;
    for (std::int64_t i = 0; i < n; ++i) {
      machine.step();
      // As in BM_SteppedResume: without the per-iteration escape the
      // optimizer folds the whole loop to a constant.
      benchmark::DoNotOptimize(machine.resume);
    }
    stepped_resume_ns = sw.ms() * 1e6 / static_cast<double>(n);
    benchmark::DoNotOptimize(machine.count);
  }
  const auto kernel_step_ns = [](bool stepped) {
    const std::int64_t batch = 500'000;
    Runtime rt;
    Register<> reg(0);
    if (stepped) {
      rt.add_stepped(SteppedWriterBody{&reg, batch});
    } else {
      rt.add_process([&reg, batch](Context& ctx) {
        for (std::int64_t i = 0; i < batch; ++i) {
          reg.write(ctx, i);
        }
      });
    }
    RoundRobinDriver driver;
    const subc_bench::Stopwatch sw;
    rt.run(driver, batch + 10);
    return sw.ms() * 1e6 / static_cast<double>(batch);
  };
  const double fiber_kernel_ns = kernel_step_ns(false);
  const double stepped_kernel_ns = kernel_step_ns(true);
  subc_bench::Json cell;
  cell.set("fiber_switch", fiber_switch_ns)
      .set("stepped_resume", stepped_resume_ns)
      .set("fiber_kernel_step", fiber_kernel_ns)
      .set("stepped_kernel_step", stepped_kernel_ns)
      .set("kernel_step_speedup", stepped_kernel_ns > 0
                                      ? fiber_kernel_ns / stepped_kernel_ns
                                      : 0.0);
  return cell;
}

// Direct (non-google-benchmark) explorer rate measurement for the JSON
// artifact: one larger tree (3 procs × 4 reads), serial vs parallel, on
// each execution engine. `--perf-smoke` gates the two serial rates
// separately against scripts/perf_baseline/BENCH_F4.json.
void write_results_json() {
  const int threads = subc_bench::bench_threads();
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    Register<> reg(0);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&](Context& ctx) {
        for (int s = 0; s < 4; ++s) {
          reg.read(ctx);
        }
      });
    }
    rt.run(driver);
  };
  const ExecutionBody stepped_body = [](SchedulePolicy& driver) {
    Runtime rt;
    Register<> reg(0);
    for (int p = 0; p < 3; ++p) {
      rt.add_stepped(SteppedRegisterReader{&reg, 4});
    }
    rt.run(driver);
  };
  Explorer::Options opts;
  opts.max_executions = 5'000'000;
  opts.reduction = Reduction::kNone;  // rate of the raw enumeration
  const subc_bench::Stopwatch serial_sw;
  const auto serial = Explorer::explore(body, opts);
  const double serial_ms = serial_sw.ms();
  const subc_bench::Stopwatch stepped_serial_sw;
  const auto stepped_serial = Explorer::explore(stepped_body, opts);
  const double stepped_serial_ms = stepped_serial_sw.ms();
  opts.threads = threads;
  const subc_bench::Stopwatch parallel_sw;
  const auto parallel = Explorer::explore(body, opts);
  const double parallel_ms = parallel_sw.ms();
  const subc_bench::Stopwatch stepped_parallel_sw;
  const auto stepped_parallel = Explorer::explore(stepped_body, opts);
  const double stepped_parallel_ms = stepped_parallel_sw.ms();
  // One reduced pass over the same tree: the artifact's search tally (the
  // timed passes above are unreduced throughput runs).
  Explorer::Options red = opts;
  red.threads = 1;
  red.reduction = Reduction::kSleepSets;
  const auto reduced = Explorer::explore(body, red);

  const double serial_rate =
      serial_ms > 0
          ? 1000.0 * static_cast<double>(serial.executions) / serial_ms
          : 0.0;
  const double stepped_serial_rate =
      stepped_serial_ms > 0
          ? 1000.0 * static_cast<double>(stepped_serial.executions) /
                stepped_serial_ms
          : 0.0;
  subc_bench::Json out;
  out.set("bench", "F4")
      .set("threads", threads)
      .set("executions", serial.executions)
      .set("executions_reduced", reduced.executions)
      .set("counts_match", parallel.executions == serial.executions &&
                               stepped_serial.executions ==
                                   serial.executions &&
                               stepped_parallel.executions ==
                                   serial.executions)
      .set("serial_ms", serial_ms)
      .set("parallel_ms", parallel_ms)
      .set("serial_executions_per_sec", serial_rate)
      .set("parallel_executions_per_sec",
           parallel_ms > 0
               ? 1000.0 * static_cast<double>(parallel.executions) /
                     parallel_ms
               : 0.0)
      .set("speedup", parallel_ms > 0 ? serial_ms / parallel_ms : 0.0)
      .set("stepped_serial_ms", stepped_serial_ms)
      .set("stepped_parallel_ms", stepped_parallel_ms)
      .set("stepped_serial_executions_per_sec", stepped_serial_rate)
      .set("stepped_parallel_executions_per_sec",
           stepped_parallel_ms > 0
               ? 1000.0 *
                     static_cast<double>(stepped_parallel.executions) /
                     stepped_parallel_ms
               : 0.0)
      .set("stepped_speedup_vs_fiber",
           serial_rate > 0 ? stepped_serial_rate / serial_rate : 0.0)
      .set("per_step_ns", measure_per_step_ns());
  out.set("search", subc_bench::search_tally_cell(
                        {.executions = reduced.executions,
                         .reduced = reduced.reduced_subtrees,
                         .crashed = reduced.crashed_executions,
                         .recovered = reduced.recovered_executions,
                         .stuck = reduced.stuck_executions}));
  subc_bench::write_json("BENCH_F4.json", out);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  write_results_json();
  return 0;
}
