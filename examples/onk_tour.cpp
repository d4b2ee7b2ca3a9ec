// onk_tour: the reconstructed PODC 2016 objects, hands-on.
//
//   $ ./onk_tour [n] [k]        (defaults n = 2, k = 2)
//
// Walks through O_{n,k}:
//  1. the component GAC(n,i) rules on a sequential run (blocks + wrap);
//  2. n-process consensus on component 0, and the (n+1)-process failure;
//  3. the separation at N_k = nk+n+k: O_{n,k+1} vs O_{n,k}, both executed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "subc/algorithms/classic_consensus.hpp"
#include "subc/algorithms/onk_algorithms.hpp"
#include "subc/core/consensus_number.hpp"
#include "subc/core/tasks.hpp"
#include "subc/runtime/explorer.hpp"

namespace {

using namespace subc;

void component_rules(int n, int i) {
  std::printf("1. GAC(%d,%d): m = %d proposals, at most %d distinct "
              "answers\n", n, i, GacObject::capacity_static(n, i), i + 1);
  Runtime rt;
  GacObject gac(n, i);
  rt.add_process([&](Context& ctx) {
    const int m = gac.capacity();
    for (int t = 1; t <= m; ++t) {
      const Value got = gac.propose(ctx, 100 + t);
      std::printf("   arrival %2d proposes %3d -> %3lld%s\n", t, 100 + t,
                  static_cast<long long>(got),
                  t > n * (i + 1) ? "   (wrap-around: block 0's value)" : "");
    }
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

void consensus_boundary(int n) {
  std::printf("\n2. component 0 = deterministic %d-consensus:\n", n);
  {
    Runtime rt;
    OnkObject onk(n, 2);
    std::vector<Value> inputs;
    for (int p = 0; p < n; ++p) {
      inputs.push_back(10 + p);
    }
    for (int p = 0; p < n; ++p) {
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(consensus_from_onk(ctx, onk,
                                      inputs[static_cast<std::size_t>(p)]));
      });
    }
    RandomDriver driver(3);
    const auto result = rt.run(driver);
    check_agreement(result.decisions);
    std::printf("   %d processes agreed on %s ✓\n", n,
                to_string(result.decisions[0]).c_str());
  }
  const auto violation = find_consensus_violation(
      [n](SchedulePolicy& driver, const std::vector<Value>& inputs) {
        Runtime rt;
        GacObject gac(n, 1);
        for (int p = 0; p < n + 1; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(consensus_attempt_from_gac(
                ctx, gac, inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver);
        check_agreement(run.decisions);
      },
      [n] {
        std::vector<Value> inputs;
        for (int p = 0; p < n + 1; ++p) {
          inputs.push_back(20 + p);
        }
        return inputs;
      }());
  std::printf("   %d processes on the same object: %s\n", n + 1,
              violation ? "disagreement schedule found ✓ (consensus number "
                          "stays n)"
                        : "?! no violation found");
}

void separation(int n, int k) {
  const OnkSeparation sep = onk_separation(n, k);
  std::printf("\n3. the 2016 separation at N_k = %d processes:\n",
              sep.system_size);
  std::printf("   calculus:  O_{%d,%d} best agreement %d | O_{%d,%d} best "
              "agreement %d\n", n, k + 1, sep.agreement_with_k1, n, k,
              sep.agreement_with_k);
  for (const int components : {k + 1, k}) {
    int worst = 0;
    RandomSweep::run(
        [&](SchedulePolicy& driver) {
          Runtime rt;
          OnkSetConsensus algorithm(n, components, sep.system_size);
          for (int p = 0; p < sep.system_size; ++p) {
            rt.add_process([&, p](Context& ctx) {
              ctx.decide(algorithm.propose(ctx, p, 500 + p));
            });
          }
          const auto run = rt.run(driver);
          worst = std::max(worst, distinct_decisions(run.decisions));
        },
        400);
    std::printf("   simulator: O_{%d,%d} worst observed distinct decisions "
                "= %d\n", n, components, worst);
  }
  std::printf("   both objects have consensus number %d — the consensus\n"
              "   hierarchy cannot tell them apart; set consensus can.\n", n);
}

}  // namespace

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 2;
  const int k = argc > 2 ? std::atoi(argv[2]) : 2;
  if (n < 1 || k < 1) {
    std::printf("usage: onk_tour [n >= 1] [k >= 1]\n");
    return 2;
  }
  std::printf("O_{%d,%d} — a deterministic object of consensus number %d\n"
              "(PODC 2016 reconstruction, DESIGN.md §4)\n\n", n, k, n);
  component_rules(n, std::min(k, 2));
  consensus_boundary(n);
  separation(n, k);
  return 0;
}
