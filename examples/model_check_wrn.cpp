// model_check_wrn: the impossibility side of Theorem 1, executable.
//
//   $ ./model_check_wrn [k]
//
// Three exhibits for WRN_k (default k = 3):
//   1. the valence case census (Lemma 38's case analysis, mechanized) —
//      prints per-case coverage statistics;
//   2. a concrete disagreement: the natural 2-consensus protocol on WRN_k,
//      with the exact violating schedule the explorer found;
//   3. the k = 2 contrast: the same protocol on WRN_2 (= SWAP) survives
//      exhaustive exploration.
#include <cstdio>
#include <cstdlib>

#include "subc/algorithms/classic_consensus.hpp"
#include "subc/core/consensus_number.hpp"
#include "subc/core/tasks.hpp"
#include "subc/runtime/explorer.hpp"

namespace {

using namespace subc;

ConsensusWorldBody attempt(int k) {
  return [k](SchedulePolicy& driver, const std::vector<Value>& inputs) {
    Runtime rt;
    WrnObject wrn(k);
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(consensus2_attempt_from_wrn(
            ctx, wrn, p, inputs[static_cast<std::size_t>(p)]));
      });
    }
    const auto run = rt.run(driver);
    check_all_done_and_decided(run);
    check_validity(inputs, run.decisions);
    check_agreement(run.decisions);
  };
}

}  // namespace

int main(int argc, char** argv) {
  const int k = argc > 1 ? std::atoi(argv[1]) : 3;
  if (k < 3) {
    std::printf("k must be >= 3 (WRN_2 is SWAP and solves 2-consensus)\n");
    return 2;
  }

  std::printf("exhibit 1: Lemma 38's case analysis for WRN_%d, mechanized\n",
              k);
  const ValenceReport report = check_wrn_valence(k);
  std::printf("  states checked: %ld, pending-step pairs: %ld\n",
              report.states_checked, report.pairs_checked);
  std::printf("  uncovered pairs: %zu  -> %s\n\n", report.uncovered.size(),
              report.all_covered()
                  ? "every pair indistinguishable to someone: the "
                    "critical-state argument closes; no wait-free 2-process "
                    "consensus from WRN_k and registers"
                  : "UNEXPECTED: the analysis should cover everything");

  std::printf("exhibit 2: the natural 2-consensus protocol on WRN_%d "
              "disagrees\n", k);
  std::printf("  protocol: role b runs t = WRN(b, v_b); decides t if t != "
              "⊥, else v_b\n");
  const auto violation = find_consensus_violation(attempt(k), {0, 1});
  if (violation) {
    std::printf("  explorer verdict: %s\n\n", violation->c_str());
  } else {
    std::printf("  UNEXPECTED: no violation found\n\n");
  }

  std::printf("exhibit 3: the same protocol on WRN_2 (= SWAP)\n");
  const auto check =
      check_consensus_algorithm(attempt(2), {{0, 1}, {1, 0}, {4, 4}});
  std::printf("  %lld executions, exhaustive: %s -> %s\n",
              static_cast<long long>(check.executions),
              check.exhaustive ? "yes" : "no",
              check.ok() ? "correct 2-consensus (consensus number 2)"
                         : check.violation->c_str());

  const bool ok = report.all_covered() && violation.has_value() && check.ok();
  return ok ? 0 : 1;
}
