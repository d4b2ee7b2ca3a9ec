// Experiment T2 — Theorem 41: the (n,k) ← (m,j) implementability matrix.
//
// For a grid of source objects (m,j) and targets (n,k), print whether
// (n,k)-set consensus is wait-free implementable from (m,j)-set-consensus
// objects and registers, and cross-check the closed-form partition bound
// against the all-partitions dynamic program on the whole grid.
#include <cstdio>

#include "bench_util.hpp"
#include "subc/core/hierarchy.hpp"

int main() {
  using namespace subc;

  std::printf("T2: Theorem 41 implementability — (n,k) from (m,j)\n\n");

  // Cross-check closed form vs DP on a broad grid.
  long checked = 0;
  long mismatches = 0;
  for (int m = 2; m <= 14; ++m) {
    for (int j = 1; j < m; ++j) {
      for (int n = 1; n <= 40; ++n) {
        ++checked;
        if (sc_partition_agreement(n, m, j) !=
            sc_partition_agreement_dp(n, m, j)) {
          ++mismatches;
        }
      }
    }
  }
  std::printf("closed form vs optimal-partition DP: %ld combinations, "
              "%ld mismatches\n\n", checked, mismatches);

  // Implementability of (n,k) from a few canonical sources.
  const std::pair<int, int> sources[] = {{2, 1}, {3, 1}, {3, 2},
                                         {4, 3}, {5, 2}, {6, 4}};
  for (const auto& [m, j] : sources) {
    std::printf("source (m,j) = (%d,%d)  [consensus number %d]\n", m, j,
                sc_consensus_number(m, j));
    std::printf("   n\\k |");
    for (int k = 1; k <= 8; ++k) {
      std::printf(" %2d", k);
    }
    std::printf("\n  -----+%s\n", "------------------------");
    for (int n = 2; n <= 12; ++n) {
      std::printf("   %3d |", n);
      for (int k = 1; k <= 8; ++k) {
        std::printf("  %s", k >= n             ? "-"
                            : sc_implementable(n, k, m, j) ? "Y"
                                                           : ".");
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

  std::printf("Paper example: (12,8) from (3,2) -> %s (expected Y)\n",
              sc_implementable(12, 8, 3, 2) ? "Y" : "N");
  std::printf("              (12,7) from (3,2) -> %s (expected N)\n",
              sc_implementable(12, 7, 3, 2) ? "Y" : "N");

  const bool ok = mismatches == 0 && sc_implementable(12, 8, 3, 2) &&
                  !sc_implementable(12, 7, 3, 2);
  subc_bench::Json out;
  out.set("bench", "T2")
      .set("combinations_checked", static_cast<std::int64_t>(checked))
      .set("mismatches", static_cast<std::int64_t>(mismatches))
      .set("pass", ok);
  subc_bench::write_json("BENCH_T2.json", out);
  std::printf("\nT2 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
