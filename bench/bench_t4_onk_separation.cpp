// Experiment T4 — the PODC 2016 hierarchy at consensus levels n ≥ 2:
// O_{n,k} vs O_{n,k+1} at N_k = nk+n+k processes.
//
// Two layers of evidence per (n,k):
//  1. Calculus: the optimal-partition agreement of O_{n,k} at N_k is k+2
//     while O_{n,k+1} achieves k+1 (the 2016 separation statement), with
//     the DP cross-checked by brute force on small instances.
//  2. Simulator: the OnkSetConsensus construction is actually executed at
//     N_k for both objects; the worst observed distinct-decision counts
//     must match the calculus exactly.
// Simulation sweeps run on the parallel RandomSweep; results also land in
// BENCH_T4.json.
#include <algorithm>
#include <cstdio>
#include <mutex>

#include "bench_util.hpp"
#include "subc/algorithms/onk_algorithms.hpp"
#include "subc/core/consensus_number.hpp"
#include "subc/core/hierarchy.hpp"
#include "subc/core/tasks.hpp"
#include "subc/runtime/explorer.hpp"

namespace {

using namespace subc;

int simulate_worst_distinct(int n, int components, int procs, int rounds,
                            int threads) {
  std::vector<Value> inputs;
  for (int p = 0; p < procs; ++p) {
    inputs.push_back(1000 + p);
  }
  std::mutex mu;
  int worst = 0;
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        OnkSetConsensus algorithm(n, components, procs);
        for (int p = 0; p < procs; ++p) {
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
  if (!result.ok()) {
    std::printf("  !! simulator violation: %s\n", result.violation->c_str());
    return -1;
  }
  return worst;
}

}  // namespace

int main() {
  const int threads = subc_bench::bench_threads();
  std::printf("T4: 2016 separation — O_{n,k} vs O_{n,k+1} at N_k = nk+n+k "
              "(%d threads)\n\n", threads);
  std::printf("%3s %3s %5s | %9s %9s | %9s %9s | %s\n", "n", "k", "N_k",
              "calc k+1", "calc k+2", "sim(k+1)", "sim(k+2)", "separated");
  bool ok = true;
  std::vector<subc_bench::Json> rows;
  for (int n = 2; n <= 5; ++n) {
    for (int k = 1; k <= 4; ++k) {
      const OnkSeparation sep = onk_separation(n, k);
      // Brute-force cross-check for small system sizes.
      if (sep.system_size <= 14) {
        if (onk_best_agreement_bruteforce(n, k, sep.system_size) !=
                sep.agreement_with_k ||
            onk_best_agreement_bruteforce(n, k + 1, sep.system_size) !=
                sep.agreement_with_k1) {
          std::printf("  !! brute-force mismatch at n=%d k=%d\n", n, k);
          ok = false;
        }
      }
      const int rounds = sep.system_size <= 10 ? 1500 : 400;
      const int sim_k1 =
          simulate_worst_distinct(n, k + 1, sep.system_size, rounds, threads);
      const int sim_k =
          simulate_worst_distinct(n, k, sep.system_size, rounds, threads);
      const bool row_ok = sep.agreement_with_k1 == k + 1 &&
                          sep.agreement_with_k == k + 2 &&
                          sim_k1 == sep.agreement_with_k1 &&
                          sim_k == sep.agreement_with_k;
      ok = ok && row_ok;
      std::printf("%3d %3d %5d | %9d %9d | %9d %9d | %s\n", n, k,
                  sep.system_size, sep.agreement_with_k1, sep.agreement_with_k,
                  sim_k1, sim_k, sep.separated() ? "yes" : "NO");
      subc_bench::Json row;
      row.set("n", n)
          .set("k", k)
          .set("system_size", sep.system_size)
          .set("calc_k1", sep.agreement_with_k1)
          .set("calc_k", sep.agreement_with_k)
          .set("sim_k1", sim_k1)
          .set("sim_k", sim_k)
          .set("ok", row_ok);
      rows.push_back(row);
    }
  }
  std::printf("\nconsensus-number boundary of the components, synthesized\n"
              "(announce/propose/decide family on one GAC(n,i)):\n");
  std::printf("%4s %4s | %14s %14s | %14s %14s\n", "n", "i", "protos(n)",
              "correct(n)", "protos(n+1)", "correct(n+1)");
  struct SynthCase {
    int n;
    int i;
  };
  std::vector<subc_bench::Json> synth_rows;
  for (const auto [n, i] : {SynthCase{2, 1}, SynthCase{2, 2},
                            SynthCase{3, 1}}) {
    const auto at_n = search_gac_consensus_protocols(n, i, n);
    const auto at_n1 = search_gac_consensus_protocols(n, i, n + 1);
    ok = ok && at_n.correct > 0 && at_n1.correct == 0;
    std::printf("%4d %4d | %14ld %14ld | %14ld %14ld\n", n, i,
                at_n.protocols_checked, at_n.correct,
                at_n1.protocols_checked, at_n1.correct);
    subc_bench::Json row;
    row.set("n", n)
        .set("i", i)
        .set("correct_at_n", static_cast<std::int64_t>(at_n.correct))
        .set("correct_at_n1", static_cast<std::int64_t>(at_n1.correct));
    synth_rows.push_back(row);
  }

  subc_bench::Json out;
  out.set("bench", "T4")
      .set("threads", threads)
      .set("separations", rows)
      .set("synthesis", synth_rows)
      .set("pass", ok);
  subc_bench::write_json("BENCH_T4.json", out);

  std::printf(
      "\nreading: with N_k processes, O_{n,k+1} solves (N_k, k+1)-set\n"
      "consensus (one fresh GAC(n,k) component) while O_{n,k}'s optimum is\n"
      "(N_k, k+2) — consensus number stays n for both (the synthesis table:\n"
      "winning protocols at n processes, none at n+1), so consensus number\n"
      "alone cannot rank them (the 2016 theorem, reconstructed).\n");
  std::printf("\nT4 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
