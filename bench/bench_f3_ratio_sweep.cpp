// Experiment F3 — the set-consensus ratio of WRN_k (Section 7.1,
// Algorithm 6): the achievable m for n processes, swept over n and k.
//
// Prints the guaranteed agreement m(n,k) = (k−1)⌊n/k⌋ + min(k−1, n mod k)
// alongside the paper's headline ratio bound m/n ≥ (k−1)/k, and validates a
// sample of the grid in the simulator (worst observed distinct decisions
// must equal m exactly — the construction is tight). Validation sweeps run
// on the parallel RandomSweep; results also land in BENCH_F3.json.
#include <algorithm>
#include <cstdio>
#include <mutex>

#include "bench_util.hpp"
#include "subc/algorithms/wrn_set_consensus.hpp"
#include "subc/core/tasks.hpp"
#include "subc/runtime/explorer.hpp"

namespace {

using namespace subc;

int simulate_worst_distinct(int n, int k, int rounds, int threads) {
  std::vector<Value> inputs;
  for (int p = 0; p < n; ++p) {
    inputs.push_back(100 + p);
  }
  std::mutex mu;
  int worst = 0;
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        WrnRatioSetConsensus algorithm(n, k);
        for (int p = 0; p < n; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(algorithm.propose(ctx, p,
                                         inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver);
        check_all_done_and_decided(run);
        check_set_consensus(run, inputs, algorithm.agreement());
        const int distinct = distinct_decisions(run.decisions);
        const std::lock_guard<std::mutex> lock(mu);
        worst = std::max(worst, distinct);
      },
      rounds, 1, threads);
  return result.ok() ? worst : -1;
}

}  // namespace

int main() {
  const int threads = subc_bench::bench_threads();
  std::printf("F3: Algorithm 6 — m-set consensus for n processes from "
              "WRN_k (%d threads)\n\n", threads);
  std::printf("guaranteed m(n,k); '*' marks simulator-validated cells "
              "(worst observed == m):\n\n");
  std::printf(" n\\k |");
  for (int k = 3; k <= 8; ++k) {
    std::printf("   %2d  ", k);
  }
  std::printf("\n-----+%s\n", "------------------------------------------");
  bool ok = true;
  std::vector<subc_bench::Json> cells;
  for (int n = 3; n <= 24; n += 3) {
    std::printf(" %3d |", n);
    for (int k = 3; k <= 8; ++k) {
      WrnRatioSetConsensus probe(n, k);
      const int m = probe.agreement();
      bool validated = false;
      if (n <= 12 && (k == 3 || k == n / 2 || k == 4)) {
        const int worst = simulate_worst_distinct(n, k, 300, threads);
        validated = worst == m;
        if (worst >= 0 && !validated) {
          ok = false;
        }
        subc_bench::Json cell;
        cell.set("n", n).set("k", k).set("m", m).set("worst", worst).set(
            "validated", validated);
        cells.push_back(cell);
      }
      std::printf(" %4d%s ", m, validated ? "*" : " ");
    }
    std::printf("\n");
  }
  std::printf("\npaper example: n=12, k=3 -> m=%d (expected 8)\n",
              WrnRatioSetConsensus(12, 3).agreement());
  ok = ok && WrnRatioSetConsensus(12, 3).agreement() == 8;
  std::printf(
      "\nreading: the ratio m/n approaches (k-1)/k from above; larger k\n"
      "means proportionally more agreement per WRN object, and the\n"
      "hierarchy of Corollary 42 is strict in k.\n");
  subc_bench::Json out;
  out.set("bench", "F3")
      .set("threads", threads)
      .set("validated_cells", cells)
      .set("pass", ok);
  subc_bench::write_json("BENCH_F3.json", out);
  std::printf("\nF3 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
