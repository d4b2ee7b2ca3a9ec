// Experiment T3 — Corollary 42: the infinite hierarchy among 1sWRN_k
// objects. Prints the implementability matrix (target k × source k') via
// the Theorem 2 equivalence 1sWRN_k ≡ (k,k−1)-set consensus, and verifies
// the strict-chain property on a wide range.
#include <cstdio>

#include "bench_util.hpp"
#include "subc/core/hierarchy.hpp"
#include "subc/runtime/value.hpp"

int main() {
  using namespace subc;

  std::printf("T3: Corollary 42 — the 1sWRN_k hierarchy (k >= 3)\n\n");
  std::printf("%s\n", format_wrn_matrix(3, 12).c_str());
  std::printf("reading: ✓ at (row k, column k') means 1sWRN_k is wait-free\n"
              "implementable from 1sWRN_{k'} objects and registers.\n"
              "Expected shape: upper triangle (including diagonal) only —\n"
              "smaller k is strictly stronger.\n\n");

  bool ok = true;
  long pairs = 0;
  for (int k = 3; k <= 24; ++k) {
    for (int k_prime = k + 1; k_prime <= 25; ++k_prime) {
      ++pairs;
      try {
        check_wrn_hierarchy_pair(k, k_prime);
      } catch (const SpecViolation&) {
        ok = false;
        std::printf("HIERARCHY BROKEN at k=%d, k'=%d\n", k, k_prime);
      }
    }
  }
  std::printf("strict-chain property verified on %ld pairs (k,k') with "
              "3 <= k < k' <= 25\n", pairs);
  subc_bench::Json out;
  out.set("bench", "T3")
      .set("pairs_verified", static_cast<std::int64_t>(pairs))
      .set("pass", ok);
  subc_bench::write_json("BENCH_T3.json", out);
  std::printf("\nT3 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
