// Experiment T8 — the Borowsky–Gafni simulation (the machinery behind the
// papers' [9] and the Theorem 41 lower bound), quantified.
//
// Grid over (simulators m, simulated n, agreement k): validity and
// k-agreement of the transferred set-consensus task under adversarial
// random schedules, with worst observed distinct outputs; then the
// resilience series: crash f simulators and verify survivors finish with
// intact agreement for f ≤ k−1. Grid sweeps run on the parallel
// RandomSweep; results also land in BENCH_T8.json.
#include <algorithm>
#include <cstdio>
#include <mutex>

#include "bench_util.hpp"
#include "subc/algorithms/bg_simulation.hpp"
#include "subc/core/tasks.hpp"
#include "subc/runtime/explorer.hpp"

namespace {

using namespace subc;

std::vector<subc_bench::Json> g_grid_rows;
std::vector<subc_bench::Json> g_crash_rows;

bool grid_row(int m, int n, int k, int rounds, int threads) {
  std::vector<Value> inputs;
  for (int s = 0; s < m; ++s) {
    inputs.push_back(100 + 3 * s);
  }
  std::mutex mu;
  int worst = 0;
  long total_steps = 0;
  long samples = 0;
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        BgSimulation bg(m, n, k);
        for (int s = 0; s < m; ++s) {
          rt.add_process([&, s](Context& ctx) {
            ctx.decide(
                bg.run_simulator(ctx, s, inputs[static_cast<std::size_t>(s)]));
          });
        }
        const auto run = rt.run(driver, 10'000'000);
        check_all_done_and_decided(run);
        check_set_consensus(run, inputs, k);
        const int distinct = distinct_decisions(run.decisions);
        const std::lock_guard<std::mutex> lock(mu);
        worst = std::max(worst, distinct);
        total_steps += run.total_steps;
        ++samples;
      },
      rounds, 1, threads);
  const double mean_steps =
      static_cast<double>(total_steps) / static_cast<double>(samples);
  std::printf("%4d %4d %4d | %6d (<= %d) | %10.1f | %s\n", m, n, k, worst, k,
              mean_steps, result.ok() ? "ok" : result.violation->c_str());
  const bool ok = result.ok() && worst <= k;
  subc_bench::Json row;
  row.set("m", m)
      .set("n", n)
      .set("k", k)
      .set("worst_distinct", worst)
      .set("mean_steps", mean_steps)
      .set("ok", ok);
  g_grid_rows.push_back(row);
  return ok;
}

bool crash_row(int m, int n, int k, int crashes) {
  std::vector<Value> inputs;
  for (int s = 0; s < m; ++s) {
    inputs.push_back(100 + 3 * s);
  }
  bool ok = true;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Runtime rt;
    BgSimulation bg(m, n, k);
    for (int s = 0; s < m; ++s) {
      rt.add_process([&, s](Context& ctx) {
        ctx.decide(
            bg.run_simulator(ctx, s, inputs[static_cast<std::size_t>(s)]));
      });
    }
    for (int c = 0; c < crashes; ++c) {
      rt.crash(c);  // crash the first `crashes` simulators outright
    }
    RandomDriver driver(seed);
    const auto result = rt.run(driver, 10'000'000);
    try {
      check_decided_if_done(result);
      check_validity(inputs, result.decisions);
      check_k_agreement(result.decisions, k);
      for (int s = crashes; s < m; ++s) {
        if (result.states[static_cast<std::size_t>(s)] != ProcState::kDone) {
          throw SpecViolation("survivor stalled");
        }
      }
    } catch (const SpecViolation&) {
      ok = false;
    }
  }
  std::printf("%4d %4d %4d | %7d | %s\n", m, n, k, crashes,
              ok ? "survivors fine" : "VIOLATION");
  subc_bench::Json row;
  row.set("m", m).set("n", n).set("k", k).set("crashes", crashes).set("ok",
                                                                      ok);
  g_crash_rows.push_back(row);
  return ok;
}

}  // namespace

int main() {
  const int threads = subc_bench::bench_threads();
  std::printf("T8: BG simulation — k-set consensus transfer (%d threads)\n\n",
              threads);
  std::printf("   m    n    k |  worst distinct |  mean steps | status\n");
  bool ok = true;
  ok &= grid_row(2, 4, 1, 200, threads);
  ok &= grid_row(3, 5, 2, 200, threads);
  ok &= grid_row(3, 6, 2, 200, threads);
  ok &= grid_row(4, 6, 3, 150, threads);
  ok &= grid_row(4, 8, 2, 100, threads);
  ok &= grid_row(5, 7, 3, 100, threads);

  std::printf("\nresilience: f simulators crashed before starting "
              "(f <= k-1 tolerated)\n");
  std::printf("   m    n    k | crashes | status\n");
  ok &= crash_row(3, 5, 2, 1);
  ok &= crash_row(4, 6, 3, 2);
  ok &= crash_row(4, 8, 2, 1);
  ok &= crash_row(5, 7, 3, 2);

  subc_bench::Json out;
  out.set("bench", "T8")
      .set("threads", threads)
      .set("grid", g_grid_rows)
      .set("resilience", g_crash_rows)
      .set("pass", ok);
  subc_bench::write_json("BENCH_T8.json", out);

  std::printf(
      "\nreading: m simulators jointly run the (k-1)-resilient n-process\n"
      "quorum-min protocol; every simulated nondeterministic step goes\n"
      "through safe agreement, so all simulators observe one execution and\n"
      "a crashed simulator blocks at most one simulated process. This is\n"
      "the engine behind the strong-set-election construction ([9]) and\n"
      "the Theorem 41 lower bound.\n");
  std::printf("\nT8 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
