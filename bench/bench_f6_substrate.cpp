// Experiment F6 — register-substrate scaling: the costs of the classical
// building blocks this library grounds everything in.
//
// Series over n:
//  * immediate snapshot (participating set): level descents and steps per
//    participate() under contention;
//  * safe agreement: steps per propose plus resolve retries under random
//    scheduling;
//  * adopt-commit: commit rate under conflicting vs aligned proposals;
//  * register-built atomic snapshot: collects per scan under w writers.
// Sweeps run on the parallel RandomSweep; results also land in
// BENCH_F6.json.
#include <algorithm>
#include <cstdio>
#include <mutex>

#include "bench_util.hpp"
#include "subc/algorithms/adopt_commit.hpp"
#include "subc/algorithms/immediate_snapshot.hpp"
#include "subc/algorithms/safe_agreement.hpp"
#include "subc/algorithms/snapshot_impl.hpp"
#include "subc/runtime/explorer.hpp"

namespace {

using namespace subc;

std::vector<subc_bench::Json> g_rows;

void record(const char* series, int n, double mean, long worst) {
  subc_bench::Json row;
  row.set("series", series).set("n", n).set("mean", mean).set(
      "worst", static_cast<std::int64_t>(worst));
  g_rows.push_back(row);
}

void series_immediate_snapshot(int threads) {
  std::printf("immediate snapshot — steps per participate():\n");
  std::printf("%4s  %12s  %12s\n", "n", "mean", "worst");
  for (const int n : {2, 4, 8, 12}) {
    std::mutex mu;
    long total = 0;
    long worst = 0;
    long samples = 0;
    const auto result = RandomSweep::run(
        [&](SchedulePolicy& driver) {
          Runtime rt;
          ImmediateSnapshot is(n);
          for (int p = 0; p < n; ++p) {
            rt.add_process(
                [&, p](Context& ctx) { is.participate(ctx, p, p + 1); });
          }
          rt.run(driver);
          const std::lock_guard<std::mutex> lock(mu);
          for (int p = 0; p < n; ++p) {
            const long steps = static_cast<long>(rt.steps_of(p));
            total += steps;
            worst = std::max(worst, steps);
            ++samples;
          }
        },
        200, 1, threads);
    const double mean =
        static_cast<double>(total) / static_cast<double>(samples);
    std::printf("%4d  %12.1f  %12ld%s\n", n, mean, worst,
                result.ok() ? "" : "  !! violation");
    record("immediate_snapshot", n, mean, worst);
  }
}

void series_safe_agreement(int threads) {
  std::printf("\nsafe agreement — steps per propose+await:\n");
  std::printf("%4s  %12s  %12s\n", "n", "mean", "worst");
  for (const int n : {2, 4, 8, 12}) {
    std::mutex mu;
    long total = 0;
    long worst = 0;
    long samples = 0;
    const auto result = RandomSweep::run(
        [&](SchedulePolicy& driver) {
          Runtime rt;
          SafeAgreement sa(n);
          for (int p = 0; p < n; ++p) {
            rt.add_process([&, p](Context& ctx) {
              sa.propose(ctx, p, 10 + p);
              sa.await(ctx);
            });
          }
          rt.run(driver);
          const std::lock_guard<std::mutex> lock(mu);
          for (int p = 0; p < n; ++p) {
            const long steps = static_cast<long>(rt.steps_of(p));
            total += steps;
            worst = std::max(worst, steps);
            ++samples;
          }
        },
        200, 1, threads);
    const double mean =
        static_cast<double>(total) / static_cast<double>(samples);
    std::printf("%4d  %12.1f  %12ld%s\n", n, mean, worst,
                result.ok() ? "" : "  !! violation");
    record("safe_agreement", n, mean, worst);
  }
}

void series_adopt_commit(int threads) {
  std::printf("\nadopt-commit — commit rate (fraction of processes that "
              "committed):\n");
  std::printf("%4s  %14s  %14s\n", "n", "aligned", "conflicting");
  for (const int n : {2, 4, 8}) {
    const auto rate = [n, threads](bool aligned) {
      std::mutex mu;
      long commits = 0;
      long outcomes = 0;
      RandomSweep::run(
          [&](SchedulePolicy& driver) {
            Runtime rt;
            AdoptCommit ac(n);
            for (int p = 0; p < n; ++p) {
              rt.add_process([&, p, aligned](Context& ctx) {
                const Value v = aligned ? 7 : 7 + p;
                const auto o = ac.propose(ctx, p, v);
                const std::lock_guard<std::mutex> lock(mu);
                ++outcomes;
                commits += o.grade == Grade::kCommit ? 1 : 0;
              });
            }
            rt.run(driver);
          },
          300, 1, threads);
      return static_cast<double>(commits) / static_cast<double>(outcomes);
    };
    const double aligned = rate(true);
    const double conflicting = rate(false);
    std::printf("%4d  %14.3f  %14.3f\n", n, aligned, conflicting);
    subc_bench::Json row;
    row.set("series", "adopt_commit")
        .set("n", n)
        .set("aligned_commit_rate", aligned)
        .set("conflicting_commit_rate", conflicting);
    g_rows.push_back(row);
  }
  std::printf("(aligned proposals must commit everywhere: expect 1.000)\n");
}

void series_snapshot(int threads) {
  std::printf("\nregister-built snapshot — steps per scan with w busy "
              "writers:\n");
  std::printf("%4s  %12s  %12s\n", "w", "mean", "worst");
  for (const int w : {1, 2, 4, 8}) {
    std::mutex mu;
    long total = 0;
    long worst = 0;
    long samples = 0;
    RandomSweep::run(
        [&](SchedulePolicy& driver) {
          Runtime rt;
          SnapshotFromRegisters<> snap(w + 1, 0);
          for (int i = 0; i < w; ++i) {
            rt.add_process([&, i](Context& ctx) {
              for (int u = 1; u <= 3; ++u) {
                snap.update(ctx, i, u);
              }
            });
          }
          rt.add_process([&](Context& ctx) {
            const std::int64_t before = ctx.runtime().steps_of(w);
            snap.scan(ctx);
            const long cost =
                static_cast<long>(ctx.runtime().steps_of(w) - before);
            const std::lock_guard<std::mutex> lock(mu);
            total += cost;
            worst = std::max(worst, cost);
            ++samples;
          });
          rt.run(driver);
        },
        300, 1, threads);
    const double mean =
        static_cast<double>(total) / static_cast<double>(samples);
    std::printf("%4d  %12.1f  %12ld\n", w, mean, worst);
    record("snapshot_scan", w, mean, worst);
  }
}

}  // namespace

int main() {
  const int threads = subc_bench::bench_threads();
  std::printf("F6: register-substrate scaling (%d threads)\n\n", threads);
  series_immediate_snapshot(threads);
  series_safe_agreement(threads);
  series_adopt_commit(threads);
  series_snapshot(threads);
  subc_bench::Json out;
  out.set("bench", "F6").set("threads", threads).set("rows", g_rows).set(
      "pass", true);
  subc_bench::write_json("BENCH_F6.json", out);
  std::printf("\nF6 PASS\n");
  return 0;
}
