// Experiment T1 — Algorithm 2: (k,k−1)-set consensus from WRN_k.
//
// The papers are theory papers with no measured tables; T1 regenerates the
// *claims table* for Algorithm 2 (Claims 3–9): for each k, drive the
// algorithm over every schedule (exhaustive where feasible, seeded-random
// beyond), and report the number of executions, the worst-case number of
// distinct decisions observed (must equal k−1: the bound and its
// tightness), validity violations (must be 0) and non-terminating runs
// (must be 0 — wait-freedom). Exhaustive rows run on the parallel
// work-sharing explorer; results also land in BENCH_T1.json.
#include <algorithm>
#include <cstdio>
#include <mutex>

#include "bench_util.hpp"
#include "subc/algorithms/wrn_set_consensus.hpp"
#include "subc/core/tasks.hpp"
#include "subc/runtime/explorer.hpp"

namespace {

using namespace subc;

struct Row {
  int k = 0;
  const char* mode = "";
  std::int64_t executions = 0;
  subc::ExplorerTally search;  // exhaustive rows only
  int worst_distinct = 0;
  std::int64_t violations = 0;
  double ms = 0;
};

Row run_for_k(int k, int threads) {
  Row row;
  row.k = k;
  std::vector<Value> inputs;
  for (int p = 0; p < k; ++p) {
    inputs.push_back(100 + p);
  }
  // `worst` is shared across worker threads; everything else in the body is
  // per-execution local.
  std::mutex mu;
  int worst = 0;
  const ExecutionBody body = [&](SchedulePolicy& driver) {
    Runtime rt;
    WrnSetConsensus algorithm(k);
    for (int p = 0; p < k; ++p) {
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(
            algorithm.propose(ctx, p, inputs[static_cast<std::size_t>(p)]));
      });
    }
    const auto run = rt.run(driver);
    check_all_done_and_decided(run);
    check_set_consensus(run, inputs, k - 1);
    const int distinct = distinct_decisions(run.decisions);
    const std::lock_guard<std::mutex> lock(mu);
    worst = std::max(worst, distinct);
  };
  const subc_bench::Stopwatch sw;
  if (k <= 7) {
    Explorer::Options opts;
    opts.threads = threads;
    const auto result = Explorer::explore(body, opts);
    row.mode = "exhaustive";
    row.executions = result.executions;
    row.search = {.executions = result.executions,
                  .reduced = result.reduced_subtrees,
                  .crashed = result.crashed_executions,
                  .recovered = result.recovered_executions,
                  .stuck = result.stuck_executions};
    row.violations = result.ok() ? 0 : 1;
  } else {
    const auto result = RandomSweep::run(body, 20'000, 1, threads);
    row.mode = "random";
    row.executions = result.runs;
    row.violations = result.ok() ? 0 : 1;
    // Random schedules rarely realize the tightness witness for large k
    // (ascending pid order has probability 1/k!), so drive it explicitly:
    // P_0 < P_1 < ... < P_{k-1} makes everyone but the last decide its own
    // value — exactly k−1 distinct decisions (Corollary 8 is tight).
    RoundRobinDriver witness;
    body(witness);
    ++row.executions;
  }
  row.ms = sw.ms();
  row.worst_distinct = worst;
  return row;
}

}  // namespace

int main() {
  const int threads = subc_bench::bench_threads();
  std::printf("T1: Algorithm 2 — (k,k-1)-set consensus from WRN_k "
              "(%d threads)\n", threads);
  std::printf("claims: wait-free (Claim 3), validity (Claim 6), "
              "(k-1)-agreement (Cor 8), tight\n\n");
  std::printf("%4s  %-11s %12s  %16s  %10s  %10s  %s\n", "k", "mode",
              "executions", "worst-distinct", "expected", "exec/sec",
              "violations");
  bool all_ok = true;
  std::vector<subc_bench::Json> rows;
  subc::ExplorerTally search;
  for (const int k : {3, 4, 5, 6, 7, 8, 10, 12}) {
    const Row row = run_for_k(k, threads);
    search += row.search;
    const double per_sec =
        row.ms > 0 ? 1000.0 * static_cast<double>(row.executions) / row.ms : 0;
    std::printf("%4d  %-11s %12lld  %16d  %10d  %10.0f  %lld\n", row.k,
                row.mode, static_cast<long long>(row.executions),
                row.worst_distinct, row.k - 1, per_sec,
                static_cast<long long>(row.violations));
    all_ok = all_ok && row.violations == 0 && row.worst_distinct == row.k - 1;
    subc_bench::Json json_row;
    json_row.set("k", row.k)
        .set("mode", row.mode)
        .set("executions", row.executions)
        .set("reduced_subtrees", row.search.reduced)
        .set("worst_distinct", row.worst_distinct)
        .set("violations", row.violations)
        .set("ms", row.ms)
        .set("executions_per_sec", per_sec);
    rows.push_back(json_row);
  }
  subc_bench::Json out;
  out.set("bench", "T1")
      .set("threads", threads)
      .set("rows", rows)
      .set("pass", all_ok)
      .set("search", subc_bench::search_tally_cell(search));
  subc_bench::write_json("BENCH_T1.json", out);
  std::printf("\nT1 %s\n", all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
