// Experiment F1 — Algorithm 3 cost scaling.
//
// Algorithm 3 pays for anonymity: |F| rounds of WRN objects after a
// renaming phase. This sweep reports, per k and function family, the number
// of objects allocated (|F|), and the measured worst/mean shared-memory
// steps per process and WRN objects actually touched before deciding —
// the paper gives only the existential construction; the series shows the
// constant-factor shape ((2k−1 choose k) vs k^(2k−1)). Sweeps run on the
// parallel RandomSweep; results also land in BENCH_F1.json.
#include <algorithm>
#include <cstdio>
#include <mutex>

#include "bench_util.hpp"
#include "subc/algorithms/wrn_anonymous.hpp"
#include "subc/core/tasks.hpp"
#include "subc/runtime/explorer.hpp"

namespace {

using namespace subc;

struct Row {
  int k = 0;
  const char* family = "";
  long objects = 0;
  long worst_steps = 0;
  double mean_steps = 0;
  std::int64_t runs = 0;
  double ms = 0;
  bool ok = true;
};

Row measure(int k, FunctionFamily family, const char* name, int rounds,
            int threads) {
  Row row;
  row.k = k;
  row.family = name;
  row.objects = static_cast<long>(make_function_family(k, family).size());
  // Accumulators are shared across sweep workers; guard them. Everything
  // else in the body is built fresh per execution.
  std::mutex mu;
  long total_steps = 0;
  long samples = 0;
  long worst = 0;
  const subc_bench::Stopwatch sw;
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        AnonymousSetConsensus algorithm(k, k, family);
        std::vector<Value> inputs;
        for (int p = 0; p < k; ++p) {
          inputs.push_back(500 + p);
        }
        for (int p = 0; p < k; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(algorithm.propose(ctx, p, 9000 + 17 * p,
                                         inputs[static_cast<std::size_t>(p)]));
          });
        }
        const auto run = rt.run(driver, 50'000'000);
        check_all_done_and_decided(run);
        check_set_consensus(run, inputs, k - 1);
        const std::lock_guard<std::mutex> lock(mu);
        for (int p = 0; p < k; ++p) {
          const long steps = static_cast<long>(rt.steps_of(p));
          total_steps += steps;
          worst = std::max(worst, steps);
          ++samples;
        }
      },
      rounds, 1, threads);
  row.ms = sw.ms();
  row.runs = result.runs;
  row.ok = result.ok();
  row.worst_steps = worst;
  row.mean_steps = samples ? static_cast<double>(total_steps) /
                                 static_cast<double>(samples)
                           : 0.0;
  return row;
}

}  // namespace

int main() {
  const int threads = subc_bench::bench_threads();
  std::printf("F1: Algorithm 3 cost scaling (renaming + |F| WRN rounds), "
              "%d threads\n\n", threads);
  std::printf("%4s  %-9s %9s  %12s  %12s  %s\n", "k", "family", "|F|",
              "mean steps", "worst steps", "ok");
  bool ok = true;
  std::vector<subc_bench::Json> rows;
  const auto emit = [&](const Row& row) {
    ok = ok && row.ok;
    std::printf("%4d  %-9s %9ld  %12.1f  %12ld  %s\n", row.k, row.family,
                row.objects, row.mean_steps, row.worst_steps,
                row.ok ? "yes" : "NO");
    subc_bench::Json json_row;
    json_row.set("k", row.k)
        .set("family", row.family)
        .set("objects", static_cast<std::int64_t>(row.objects))
        .set("mean_steps", row.mean_steps)
        .set("worst_steps", static_cast<std::int64_t>(row.worst_steps))
        .set("runs", row.runs)
        .set("ms", row.ms)
        .set("runs_per_sec",
             row.ms > 0 ? 1000.0 * static_cast<double>(row.runs) / row.ms : 0.0)
        .set("ok", row.ok);
    rows.push_back(json_row);
  };
  for (const int k : {3, 4, 5}) {
    emit(measure(k, FunctionFamily::kCovering, "covering", k <= 4 ? 60 : 25,
                 threads));
  }
  emit(measure(3, FunctionFamily::kFull, "full", 20, threads));
  std::printf(
      "\nreading: the covering family keeps |F| at C(2k-1,k) versus the\n"
      "paper's all-functions family k^(2k-1); worst-case steps grow with\n"
      "|F| (a process that never meets a non-⊥ answer sweeps every round).\n");
  subc_bench::Json out;
  out.set("bench", "F1").set("threads", threads).set("rows", rows).set(
      "pass", ok);
  subc_bench::write_json("BENCH_F1.json", out);
  std::printf("\nF1 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
