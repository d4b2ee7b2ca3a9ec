// Experiment T7 — universality of n-consensus (Herlihy), quantified.
//
// For the universal construction over n-consensus objects: per-operation
// step costs versus n (the price of round-robin helping), with correctness
// revalidated inline, and the contrast row the papers pivot on: a 1sWRN_k
// built universally from k-consensus objects costs O(n) steps/op, while the
// native deterministic 1sWRN_k object does it in exactly one step — yet
// (the whole point) the native object has consensus number 1 and could
// never provide the consensus objects the universal construction consumes.
// Sweeps run on the parallel RandomSweep; results also land in
// BENCH_T7.json.
#include <algorithm>
#include <cstdio>
#include <mutex>

#include "bench_util.hpp"
#include "subc/algorithms/universal.hpp"
#include "subc/checking/linearizability.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"

namespace {

using namespace subc;

struct CounterSpec {
  struct State {
    Value total = 0;
  };
  [[nodiscard]] State initial() const { return {}; }
  bool apply(State& s, const std::vector<Value>& op,
             std::vector<Value>& response) const {
    response = {s.total};
    if (op[0] == 0) {
      s.total += op[1];
    }
    return true;
  }
  [[nodiscard]] std::string key(const State& s) const {
    return std::to_string(s.total);
  }
};

struct Row {
  int n = 0;
  double mean_steps = 0;
  long worst_steps = 0;
  bool ok = true;
};

Row measure_counter(int n, int ops_per_proc, int rounds, int threads) {
  Row row;
  row.n = n;
  std::mutex mu;
  long total_steps = 0;
  long total_ops = 0;
  long worst = 0;
  const auto result = RandomSweep::run(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        UniversalObject<CounterSpec> counter(
            CounterSpec{}, n, n * ops_per_proc + 4 * n);
        for (int p = 0; p < n; ++p) {
          rt.add_process([&, p](Context& ctx) {
            for (int i = 0; i < ops_per_proc; ++i) {
              counter.apply(ctx, {0, p * 100 + i});
            }
          });
        }
        rt.run(driver, 10'000'000);
        {
          const std::lock_guard<std::mutex> lock(mu);
          for (int p = 0; p < n; ++p) {
            const long steps = static_cast<long>(rt.steps_of(p));
            total_steps += steps;
            total_ops += ops_per_proc;
            worst = std::max(worst, steps / ops_per_proc);
          }
        }
        // Inline validation: the log must contain every operation once.
        if (counter.log().size() !=
            static_cast<std::size_t>(n * ops_per_proc)) {
          throw SpecViolation("universal log lost or duplicated operations");
        }
      },
      rounds, 1, threads);
  row.ok = result.ok();
  row.mean_steps = total_ops ? static_cast<double>(total_steps) /
                                   static_cast<double>(total_ops)
                             : 0;
  row.worst_steps = worst;
  return row;
}

}  // namespace

int main() {
  const int threads = subc_bench::bench_threads();
  std::printf("T7: Herlihy universality — universal construction costs "
              "(%d threads)\n\n", threads);
  std::printf("shared counter, 2 ops/process, from n-consensus objects:\n");
  std::printf("%4s  %16s  %16s  %s\n", "n", "mean steps/op", "worst steps/op",
              "ok");
  bool ok = true;
  std::vector<subc_bench::Json> rows;
  for (const int n : {2, 3, 4, 6, 8}) {
    const Row row = measure_counter(n, 2, 150, threads);
    ok = ok && row.ok;
    std::printf("%4d  %16.1f  %16ld  %s\n", row.n, row.mean_steps,
                row.worst_steps, row.ok ? "yes" : "NO");
    subc_bench::Json json_row;
    json_row.set("n", row.n)
        .set("mean_steps_per_op", row.mean_steps)
        .set("worst_steps_per_op", static_cast<std::int64_t>(row.worst_steps))
        .set("ok", row.ok);
    rows.push_back(json_row);
  }

  // The contrast row: 1sWRN_3 universal vs native.
  double universal_steps_per_op = 0;
  {
    std::mutex mu;
    long universal_steps = 0;
    const auto result = RandomSweep::run(
        [&](SchedulePolicy& driver) {
          Runtime rt;
          UniversalObject<OneShotWrnSpec> wrn(OneShotWrnSpec{3}, 3, 16);
          History history;
          for (int p = 0; p < 3; ++p) {
            rt.add_process([&, p](Context& ctx) {
              const std::vector<Value> op{static_cast<Value>(p),
                                          static_cast<Value>(100 + p)};
              const auto h = history.invoke(p, op);
              history.respond(h, wrn.apply(ctx, op));
            });
          }
          rt.run(driver);
          {
            const std::lock_guard<std::mutex> lock(mu);
            universal_steps +=
                rt.steps_of(0) + rt.steps_of(1) + rt.steps_of(2);
          }
          require_linearizable(OneShotWrnSpec{3}, history);
        },
        100, 1, threads);
    ok = ok && result.ok();
    universal_steps_per_op =
        static_cast<double>(universal_steps) / (100.0 * 3.0);
    std::printf("\n1sWRN_3 from 3-consensus objects: %.1f steps/op "
                "(linearizability checked)\n", universal_steps_per_op);
    std::printf("native deterministic 1sWRN_3:      1 step/op — but "
                "consensus number 1.\n");
  }

  subc_bench::Json out;
  out.set("bench", "T7")
      .set("threads", threads)
      .set("rows", rows)
      .set("wrn3_universal_steps_per_op", universal_steps_per_op)
      .set("pass", ok);
  subc_bench::write_json("BENCH_T7.json", out);

  std::printf("\nT7 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
