// Experiment T6 — the mechanized critical-state case analysis (Lemma 38 and
// the GAC components): a census of indistinguishability coverage.
//
// For WRN_k, all (state, s_P, s_Q) triples must be covered by one of the
// four Herlihy cases when k ≥ 3 (this *is* Lemma 38's case analysis run by
// machine), while k = 2 must leave exactly the adjacent-index pairs
// uncovered (the escape hatch by which SWAP reaches consensus number 2).
// For GAC(n,i), the fresh-object race states are uncovered by design (the
// consensus mechanism), and the wrap-around region is fully inert.
#include <cstdio>

#include "bench_util.hpp"
#include "subc/core/consensus_number.hpp"

int main() {
  using namespace subc;

  std::printf("T6: critical-state indistinguishability census\n\n");
  std::printf("WRN_k over domain {1,2}, all slot states:\n");
  std::printf("%4s %10s %10s %12s  %s\n", "k", "states", "pairs", "uncovered",
              "verdict");
  bool ok = true;
  std::vector<subc_bench::Json> wrn_rows;
  for (int k = 2; k <= 8; ++k) {
    const ValenceReport report = check_wrn_valence(k);
    const bool expect_covered = k >= 3;
    const bool pass = expect_covered == report.all_covered();
    ok = ok && pass;
    std::printf("%4d %10ld %10ld %12zu  %s\n", k, report.states_checked,
                report.pairs_checked, report.uncovered.size(),
                expect_covered
                    ? (pass ? "all covered -> Lemma 38 applies" : "FAIL")
                    : (pass ? "uncovered -> SWAP escapes (cons nr 2)"
                            : "FAIL"));
    subc_bench::Json row;
    row.set("k", k)
        .set("states", static_cast<std::int64_t>(report.states_checked))
        .set("pairs", static_cast<std::int64_t>(report.pairs_checked))
        .set("uncovered", static_cast<std::int64_t>(report.uncovered.size()))
        .set("pass", pass);
    wrn_rows.push_back(row);
  }

  std::printf("\nGAC(n,i) over domain {1,2}, canonical arrival states:\n");
  std::printf("%4s %4s %10s %10s %12s  %s\n", "n", "i", "states", "pairs",
              "uncovered", "note");
  std::vector<subc_bench::Json> gac_rows;
  for (int n = 1; n <= 4; ++n) {
    for (int i = 1; i <= 3; ++i) {
      const ValenceReport report = check_gac_valence(n, i);
      // Race states must exist (the object has synchronization power).
      const bool pass = !report.all_covered();
      ok = ok && pass;
      std::printf("%4d %4d %10ld %10ld %12zu  %s\n", n, i,
                  report.states_checked, report.pairs_checked,
                  report.uncovered.size(),
                  pass ? "races exist (consensus mechanism)" : "FAIL");
      subc_bench::Json row;
      row.set("n", n)
          .set("i", i)
          .set("states", static_cast<std::int64_t>(report.states_checked))
          .set("pairs", static_cast<std::int64_t>(report.pairs_checked))
          .set("uncovered",
               static_cast<std::int64_t>(report.uncovered.size()))
          .set("pass", pass);
      gac_rows.push_back(row);
    }
  }

  std::printf(
      "\nreading: 'covered' means every pending-step pair at every state is\n"
      "hidden from one of the two processes (overwrite or commute) — the\n"
      "precondition of the critical-state impossibility argument for\n"
      "2-process consensus. WRN_k (k>=3): fully covered, hence consensus\n"
      "number 1 (Theorem 1). WRN_2 = SWAP: adjacent-index pairs uncovered,\n"
      "hence the 2-consensus protocol exists (validated in T5).\n");
  subc_bench::Json out;
  out.set("bench", "T6")
      .set("wrn", wrn_rows)
      .set("gac", gac_rows)
      .set("pass", ok);
  subc_bench::write_json("BENCH_T6.json", out);
  std::printf("\nT6 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
