// adversary_lab: drive Algorithm 5 (the linearizable 1sWRN_k built from
// strong set election) under hand-crafted and random adversarial schedules,
// and watch the linearization the Wing–Gong checker constructs.
//
//   $ ./adversary_lab              # scripted scenario + random sweep
//   $ ./adversary_lab <seed>       # one random schedule, verbose
//
// The scripted scenario reproduces the §5 discussion: an early invocation
// completes before a later one starts, constraining the linearization
// order; the double-snapshot (O[] views) is what keeps the implementation
// linearizable.
#include <cstdio>
#include <cstdlib>

#include "subc/algorithms/wrn_from_sse.hpp"
#include "subc/checking/linearizability.hpp"
#include "subc/checking/trace_viz.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/runtime.hpp"

namespace {

using namespace subc;

void print_history_and_linearization(const History& history, int k) {
  TraceVizOptions viz;
  viz.op_name = "1sWRN";
  std::printf("space-time diagram (logical time):\n%s\n",
              render_history(history, viz).c_str());
  std::printf("history (invocation/response order):\n%s\n",
              history.dump().c_str());
  const auto result = check_linearizable(OneShotWrnSpec{k}, history.entries());
  if (!result.linearizable) {
    std::printf("NOT LINEARIZABLE: %s\n", result.message.c_str());
    return;
  }
  std::printf("a legal linearization:\n");
  const auto& entries = history.entries();
  for (std::size_t pos = 0; pos < result.order.size(); ++pos) {
    const HistoryEntry& e = entries[result.order[pos]];
    std::printf("  %zu. p%d 1sWRN(%lld, %lld)", pos + 1, e.pid,
                static_cast<long long>(e.op[0]),
                static_cast<long long>(e.op[1]));
    if (!e.pending()) {
      std::printf(" -> %s\n", to_string(e.response[0]).c_str());
    } else {
      std::printf(" [pending op linearized]\n");
    }
  }
}

void scripted_scenario() {
  std::printf("=== scripted scenario (the §5 ordering hazard) ===\n\n");
  // w2 (index 2) runs to completion first; then w1 (index 1) and w0
  // (index 0) interleave. Without the O[] views, w1 could return w2's value
  // while appearing to linearize after an operation that started later.
  Runtime rt;
  WrnFromSse object(3);
  History history;
  rt.add_process([&](Context& ctx) {  // pid 0: w2 then w0
    object.one_shot_wrn(ctx, 2, 302, &history);
    object.one_shot_wrn(ctx, 0, 300, &history);
  });
  rt.add_process([&](Context& ctx) {  // pid 1: w1
    object.one_shot_wrn(ctx, 1, 301, &history);
  });
  // Schedule: pid 0 until w2 completes (its ops take ~8 steps), then
  // alternate.
  std::vector<int> script(8, 0);
  for (int i = 0; i < 40; ++i) {
    script.push_back(i % 2);
  }
  ScriptedDriver driver(script);
  rt.run(driver);
  print_history_and_linearization(history, 3);
}

void random_scenario(std::uint64_t seed) {
  std::printf("\n=== random schedule, seed %llu ===\n\n",
              static_cast<unsigned long long>(seed));
  Runtime rt;
  WrnFromSse object(4);
  History history;
  for (int p = 0; p < 4; ++p) {
    rt.add_process([&, p](Context& ctx) {
      object.one_shot_wrn(ctx, p, 400 + p, &history);
    });
  }
  RandomDriver driver(seed);
  rt.run(driver);
  print_history_and_linearization(history, 4);
}

void sweep() {
  std::printf("\n=== random sweep: 500 schedules, k = 3..5 ===\n");
  for (int k = 3; k <= 5; ++k) {
    const auto result = RandomSweep::run(
        [k](SchedulePolicy& driver) {
          Runtime rt;
          WrnFromSse object(k);
          History history;
          for (int p = 0; p < k; ++p) {
            rt.add_process([&, p](Context& ctx) {
              object.one_shot_wrn(ctx, p, 100 + p, &history);
            });
          }
          rt.run(driver);
          require_linearizable(OneShotWrnSpec{k}, history);
        },
        500);
    std::printf("  k=%d: %lld schedules, %s\n", k,
                static_cast<long long>(result.runs),
                result.ok() ? "all linearizable ✓"
                            : result.violation->c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    random_scenario(std::strtoull(argv[1], nullptr, 10));
    return 0;
  }
  scripted_scenario();
  random_scenario(7);
  sweep();
  return 0;
}
