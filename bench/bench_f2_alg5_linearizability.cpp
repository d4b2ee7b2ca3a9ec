// Experiment F2 — Algorithm 5 cost and checker scaling.
//
// Two series over k:
//  * construction cost: shared-memory steps per 1sWRN operation implemented
//    by Algorithm 5 (announce + doorway + election + two snapshots), with
//    atomic versus register-built snapshots — the price of the paper's
//    construction in base-object steps;
//  * verification cost: Wing–Gong checker time on the recorded histories.
// Sweeps run on the parallel RandomSweep; results also land in
// BENCH_F2.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "bench_util.hpp"
#include "subc/algorithms/wrn_from_sse.hpp"
#include "subc/checking/linearizability.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"

namespace {

using namespace subc;

struct Row {
  int k = 0;
  const char* snapshots = "";
  double mean_steps_per_op = 0;
  long worst_steps_per_op = 0;
  double checker_ms_per_history = 0;
  std::int64_t runs = 0;
  double ms = 0;
  bool ok = true;
};

Row measure(int k, bool register_snapshots, int rounds, int threads) {
  Row row;
  row.k = k;
  row.snapshots = register_snapshots ? "registers" : "atomic";
  // Shared accumulators (guarded); the Runtime/History are per-execution.
  std::mutex mu;
  long total_steps = 0;
  long ops = 0;
  long worst = 0;
  double checker_ms = 0;
  int histories = 0;
  const subc_bench::Stopwatch sw;
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        WrnFromSse object(k, register_snapshots);
        History history;
        for (int p = 0; p < k; ++p) {
          rt.add_process([&, p](Context& ctx) {
            object.one_shot_wrn(ctx, p, 100 + p, &history);
          });
        }
        rt.run(driver, 10'000'000);
        const auto start = std::chrono::steady_clock::now();
        const auto check =
            check_linearizable(OneShotWrnSpec{k}, history.entries());
        const auto stop = std::chrono::steady_clock::now();
        {
          const std::lock_guard<std::mutex> lock(mu);
          for (int p = 0; p < k; ++p) {
            const long steps = static_cast<long>(rt.steps_of(p));
            total_steps += steps;
            worst = std::max(worst, steps);
            ++ops;
          }
          checker_ms +=
              std::chrono::duration<double, std::milli>(stop - start).count();
          ++histories;
        }
        if (!check.linearizable) {
          throw SpecViolation("not linearizable: " + check.message);
        }
      },
      rounds, 1, threads);
  row.ms = sw.ms();
  row.runs = result.runs;
  row.ok = result.ok();
  row.mean_steps_per_op =
      ops ? static_cast<double>(total_steps) / static_cast<double>(ops) : 0;
  row.worst_steps_per_op = worst;
  row.checker_ms_per_history =
      histories ? checker_ms / static_cast<double>(histories) : 0;
  return row;
}

}  // namespace

int main() {
  const int threads = subc_bench::bench_threads();
  std::printf("F2: Algorithm 5 — steps per implemented 1sWRN op and "
              "checker cost (%d threads)\n\n", threads);
  std::printf("%4s  %-10s %16s  %16s  %18s  %s\n", "k", "snapshots",
              "mean steps/op", "worst steps/op", "checker ms/history", "ok");
  bool ok = true;
  std::vector<subc_bench::Json> rows;
  const auto emit = [&](const Row& row) {
    ok = ok && row.ok;
    std::printf("%4d  %-10s %16.1f  %16ld  %18.3f  %s\n", row.k,
                row.snapshots, row.mean_steps_per_op, row.worst_steps_per_op,
                row.checker_ms_per_history, row.ok ? "yes" : "NO");
    subc_bench::Json json_row;
    json_row.set("k", row.k)
        .set("snapshots", row.snapshots)
        .set("mean_steps_per_op", row.mean_steps_per_op)
        .set("worst_steps_per_op",
             static_cast<std::int64_t>(row.worst_steps_per_op))
        .set("checker_ms_per_history", row.checker_ms_per_history)
        .set("runs", row.runs)
        .set("ms", row.ms)
        .set("runs_per_sec",
             row.ms > 0 ? 1000.0 * static_cast<double>(row.runs) / row.ms : 0.0)
        .set("ok", row.ok);
    rows.push_back(json_row);
  };
  for (const int k : {3, 4, 5, 6}) {
    emit(measure(k, false, 400, threads));
  }
  for (const int k : {3, 4}) {
    emit(measure(k, true, 120, threads));
  }
  std::printf(
      "\nreading: with atomic snapshots an operation costs O(1) steps\n"
      "(announce, doorway, election, two snapshots, one view publish);\n"
      "register-built snapshots multiply each snapshot into O(k) collects\n"
      "(and updates embed a scan), which is the register-grounded price.\n");
  // Exhaustive crash-exploration cell: every single-crash placement over
  // the §5 doorway scenario (w1-then-w0 against a concurrent w2, k = 3) is
  // enumerated with f = 1 and each surviving history checked linearizable —
  // the strongest form of the claim the randomized sweeps above sample.
  Explorer::Options crash_opts;
  crash_opts.max_crashes = 1;
  const subc_bench::Stopwatch crash_sw;
  const auto crash_result = Explorer::explore(
      [](SchedulePolicy& driver) {
        Runtime rt;
        WrnFromSse object(3);
        History history;
        rt.add_process([&](Context& ctx) {
          object.one_shot_wrn(ctx, 1, 101, &history);
          object.one_shot_wrn(ctx, 0, 100, &history);
        });
        rt.add_process(
            [&](Context& ctx) { object.one_shot_wrn(ctx, 2, 102, &history); });
        rt.run(driver);
        require_linearizable(OneShotWrnSpec{3}, history);
      },
      crash_opts);
  const double crash_ms = crash_sw.ms();
  ok = ok && crash_result.ok() && crash_result.complete &&
       crash_result.crashed_executions > 0;
  std::printf("\nexhaustive crash exploration (doorway scenario, f=1): "
              "%lld executions (%lld with a crash landed) in %.1f ms — %s\n",
              static_cast<long long>(crash_result.executions),
              static_cast<long long>(crash_result.crashed_executions),
              crash_ms,
              crash_result.ok() && crash_result.complete
                  ? "all linearizable"
                  : "FAILED");
  subc_bench::Json crash_cell;
  crash_cell.set("scenario", "doorway(k=3)");
  subc_bench::set_rate_fields(crash_cell, crash_result.executions, crash_ms);
  crash_cell.set("max_crashes", crash_opts.max_crashes)
      .set("crashed_executions", crash_result.crashed_executions)
      .set("stuck_executions", crash_result.stuck_executions)
      .set("complete", crash_result.complete)
      .set("ok", crash_result.ok());

  subc_bench::Json out;
  out.set("bench", "F2")
      .set("threads", threads)
      .set("rows", rows)
      .set("crash_exploration", crash_cell)
      .set("pass", ok);
  // The randomized sweeps above never drive the exhaustive explorer; the
  // crash cell's search is the artifact's search tally.
  out.set("search",
          subc_bench::search_tally_cell(
              {.executions = crash_result.executions,
               .reduced = crash_result.reduced_subtrees,
               .crashed = crash_result.crashed_executions,
               .recovered = crash_result.recovered_executions,
               .stuck = crash_result.stuck_executions}));
  subc_bench::write_json("BENCH_F2.json", out);
  std::printf("\nF2 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
