// Experiment F8 — soak: the release-quality reliability artifact, in two
// stages.
//
// Stage 1 (legacy workloads): a fixed wall-clock budget of randomized mixed
// schedules over every major construction, validating everything on every
// run. Each workload draws from its own disjoint seed stream (stream w =
// seeds [(w+1)<<32, (w+2)<<32)), so no two workloads replay overlapping
// schedule prefixes and every failure reproduces from (workload, seed).
// Step-quota `StuckCut`s are reported as structured diagnostics and the
// soak continues; only spec violations fail the stage.
//
// Stage 2 (sharded agreement as a service): the multi-instance soak, now
// driven through `ShardedService` (runtime/service.hpp) at 1 / 2 / 4 / 8
// shards — one InstanceTable per worker thread, clients routed by
// mix64(instance_id) through backpressured per-shard inboxes, decided
// requests' fingerprints recorded in the cross-shard dedup memo, and a
// ~1/64 replay stream exercising memo hits. Each shard runs the nano-style
// weighted-validator quorum (2/3 of total instance weight, offline members
// counted), a deterministic virtual clock for op jitter / timeouts / GC,
// and the spot audit (linearizability for 1sWRN, validity + k-agreement
// otherwise) now runs inside the decide callback on the worker threads.
//
// Self-gates: zero violations, every shard table drained at exit, ≥ 1000
// peak live instances per shard, and — only on hosts with ≥ 8 usable cores
// (4 workers + 4 producers) — ≥ 2.5x aggregate ops/s at 4 shards vs 1.
// The measured scaling ratio is stamped either way; on smaller hosts the
// absolute-throughput cells are what scripts/check.sh --perf-smoke gates
// against the committed baseline.
//
//   bench_f8_soak [seconds-per-workload] [soak-seconds] [audit-percent]
//                 (defaults 2, 4, 25; pass 0 seconds to skip a stage —
//                  check.sh --soak-smoke runs `0 5 100`; soak-seconds is
//                  split evenly across the four shard configurations)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "subc/algorithms/adopt_commit.hpp"
#include "subc/algorithms/bg_simulation.hpp"
#include "subc/algorithms/immediate_snapshot.hpp"
#include "subc/algorithms/safe_agreement.hpp"
#include "subc/algorithms/wrn_anonymous.hpp"
#include "subc/algorithms/wrn_from_sse.hpp"
#include "subc/algorithms/wrn_set_consensus.hpp"
#include "subc/checking/linearizability.hpp"
#include "subc/core/tasks.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/service.hpp"

namespace {

using namespace subc;
using Clock = std::chrono::steady_clock;

struct Workload {
  const char* name;
  ExecutionBody body;
};

struct SoakOutcome {
  long runs = 0;   ///< validated executions
  long stuck = 0;  ///< step-quota diagnostics (not failures)
  bool ok = true;
};

SoakOutcome soak_one(const Workload& workload, double seconds,
                     std::uint64_t seed_base) {
  SoakOutcome out;
  std::uint64_t seed = seed_base;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < deadline) {
    RandomDriver driver(seed++);
    try {
      workload.body(driver);
    } catch (const StuckCut&) {
      // Step-quota watchdog: a livelocked schedule is a structured
      // diagnostic, not a soak abort (it is not derived from
      // std::exception precisely so bodies cannot swallow it — report it
      // here, at the harness boundary).
      ++out.stuck;
      std::printf("  .. %s stuck at seed %llu (step-quota watchdog)\n",
                  workload.name,
                  static_cast<unsigned long long>(seed - 1));
      continue;
    } catch (const std::exception& e) {
      std::printf("  !! %s violated at seed %llu: %s\n", workload.name,
                  static_cast<unsigned long long>(seed - 1), e.what());
      out.ok = false;
      return out;
    }
    ++out.runs;
  }
  return out;
}

// --- Stage 2: the sharded agreement-as-a-service soak ---------------------

/// nano-style fixed validator set: 16 validators whose weights sum to
/// 1000; a decision commits once served proposals cover quorum weight.
/// (The `fixed_validators` rig in SNIPPETS.md is the exemplar; 667 = 2/3.)
constexpr int kValidators = 16;
constexpr unsigned kWeights[kValidators] = {180, 140, 120, 100, 90, 80, 70,
                                            60,  45,  35,  25,  20, 15, 10,
                                            6,   4};

/// One logical client request: the open shape plus its op schedule, kept
/// whole so a replay resubmits the identical request under its original
/// `request_fp` (fresh id → usually a different shard → cross-shard dedup).
struct Request {
  OpenSpec spec;
  std::vector<OpSpec> ops;
};

/// Aggregate of one (shard-count, duration) soak configuration.
struct ShardSoakResult {
  int shards = 1;
  std::int64_t opened = 0;
  std::int64_t ops = 0;
  std::int64_t decided = 0;
  std::int64_t timed_out = 0;
  std::int64_t dedup_hits = 0;
  std::int64_t dedup_records = 0;
  std::int64_t audited = 0;
  std::int64_t violations = 0;
  std::int64_t ticks = 0;          ///< max virtual clock across shards
  std::int64_t peak_live_min = 0;  ///< per-shard high-water marks
  std::int64_t peak_live_max = 0;
  std::int64_t live_at_exit = 0;
  std::int64_t blocks_carved = 0;
  std::int64_t block_reuses = 0;
  std::int64_t gc_sweeps = 0;
  std::int64_t inbox_peak = 0;
  int pinned_workers = 0;
  std::vector<std::int64_t> shard_ops;  ///< applied ops, per shard
  double ops_per_sec = 0.0;
  double p50_ticks = 0.0;
  double p99_ticks = 0.0;
};

double hist_percentile(const std::vector<std::int64_t>& hist, double p) {
  std::int64_t total = 0;
  for (const std::int64_t n : hist) {
    total += n;
  }
  if (total == 0) {
    return 0.0;
  }
  const auto target = static_cast<std::int64_t>(
      p * static_cast<double>(total - 1) + 0.5);
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < hist.size(); ++i) {
    seen += hist[i];
    if (seen > target) {
      return static_cast<double>(i);
    }
  }
  return static_cast<double>(hist.size() - 1);
}

/// Audits one decided instance from the worker-side view: 1sWRN history
/// segments go through the linearizability checker (hashed fingerprint
/// memo); GAC / set-consensus are checked for validity (responses ⊆
/// proposals) and k-agreement (≤ spec_k distinct responses).
bool audit_view(const DecidedView& view) {
  if (view.block->kind == InstanceKind::kOneShotWrn) {
    try {
      require_linearizable(OneShotWrnSpec{view.block->wrn.k},
                           view.block->history);
    } catch (const std::exception&) {
      return false;
    }
    return true;
  }
  int distinct = 0;
  std::vector<Value> seen;
  for (const Value r : *view.responses) {
    bool valid = false;
    for (const Value p : *view.proposals) {
      valid = valid || p == r;
    }
    if (!valid) {
      return false;  // response was never proposed
    }
    bool dup = false;
    for (const Value s : seen) {
      dup = dup || s == r;
    }
    if (!dup) {
      seen.push_back(r);
      ++distinct;
    }
  }
  return distinct <= view.spec_k;
}

/// Draws one fresh request from a producer's deterministic stream: 3..6
/// distinct weight-diverse validators, a kind mix over all three cores,
/// quorum judged against the full participant weight (offline members —
/// ~1/16 of participants — included, so unreachable quorums and the
/// timeout lane stay exercised), op arrival jitter over the horizon.
Request make_request(std::uint64_t& rng, int producer, std::uint64_t seq,
                     int horizon_ticks) {
  const auto pick = [&rng](std::uint64_t bound) {
    rng = subc::detail::mix64(rng);
    return rng % bound;
  };
  Request req;
  const int participants = 3 + static_cast<int>(pick(4));
  int chosen[6];
  int got = 0;
  while (got < participants) {
    const int v = static_cast<int>(pick(kValidators));
    bool dup = false;
    for (int c = 0; c < got; ++c) {
      dup = dup || chosen[c] == v;
    }
    if (!dup) {
      chosen[got++] = v;
    }
  }

  const int kind_sel = static_cast<int>(pick(3));
  if (kind_sel == 0) {
    // 1sWRN_k with one slot per participant (k >= 2 guaranteed).
    req.spec.kind = InstanceKind::kOneShotWrn;
    req.spec.a = participants;
    req.spec.spec_k = participants;
  } else if (kind_sel == 1) {
    const int level = static_cast<int>(pick(3));  // GAC(n, 0..2)
    req.spec.kind = InstanceKind::kGac;
    req.spec.a = participants;
    req.spec.b = level;
    req.spec.spec_k = level + 1;
  } else {
    // (n, k)-set-consensus with n = participants + 1 > k >= 1.
    const int k = 1 + static_cast<int>(
                      pick(static_cast<std::uint64_t>(participants) - 1));
    req.spec.kind = InstanceKind::kSetConsensus;
    req.spec.a = participants + 1;
    req.spec.b = k;
    req.spec.spec_k = k;
  }

  for (int c = 0; c < participants; ++c) {
    const int validator = chosen[c];
    req.spec.total_weight += kWeights[validator];
    if (pick(16) == 0) {
      continue;  // ~1/16 of participants are offline
    }
    OpSpec op;
    op.validator = validator;
    op.weight = kWeights[validator];
    op.slot = c;
    op.value = static_cast<Value>(1000 + validator);
    op.delay_ticks = 1 + static_cast<int>(pick(
                         static_cast<std::uint64_t>(horizon_ticks)));
    req.ops.push_back(op);
  }

  std::uint64_t fp = subc::detail::mix64(
      (static_cast<std::uint64_t>(producer) + 1) << 40 ^ seq);
  req.spec.request_fp = fp == 0 ? 1 : fp;
  return req;
}

/// One producer thread: fresh requests at full speed (backpressure from
/// the shard inboxes is the only throttle), with ~1/64 replays drawn from
/// a reservoir of its own past requests.
void produce(ShardedService& svc, int producer, double seconds,
             std::atomic<std::int64_t>& replays) {
  std::uint64_t rng =
      0xf8f8f8f8ULL + ((static_cast<std::uint64_t>(producer) + 1) << 32);
  const auto pick = [&rng](std::uint64_t bound) {
    rng = subc::detail::mix64(rng);
    return rng % bound;
  };
  std::vector<Request> reservoir;
  std::uint64_t seq = 0;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < deadline) {
    for (int burst = 0; burst < 32; ++burst) {
      if (!reservoir.empty() && pick(64) == 0) {
        const Request& req = reservoir[pick(reservoir.size())];
        const ServiceId id = svc.open(req.spec);
        for (const OpSpec& op : req.ops) {
          svc.submit(id, op);
        }
        replays.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Request req = make_request(rng, producer, ++seq,
                                 svc.options().horizon_ticks);
      const ServiceId id = svc.open(req.spec);
      for (const OpSpec& op : req.ops) {
        svc.submit(id, op);
      }
      if (reservoir.size() < 128) {
        reservoir.push_back(std::move(req));
      } else if (pick(4) == 0) {
        reservoir[pick(reservoir.size())] = std::move(req);
      }
    }
  }
}

ShardSoakResult run_sharded_soak(int shards, double seconds,
                                 int audit_percent) {
  ServiceOptions opts;  // defaults carry the soak's virtual-clock shape
  opts.shards = shards;
  std::atomic<std::int64_t> audited{0};
  std::atomic<std::int64_t> violations{0};
  std::atomic<std::int64_t> replays{0};
  ShardedService svc(opts, [&](const DecidedView& view) {
    if (static_cast<int>(subc::detail::mix64(view.id) % 100) <
        audit_percent) {
      audited.fetch_add(1, std::memory_order_relaxed);
      if (!audit_view(view)) {
        violations.fetch_add(1, std::memory_order_relaxed);
        std::printf("  !! shard %d instance %llu (%s): audit violation\n",
                    view.shard, static_cast<unsigned long long>(view.id),
                    to_string(view.block->kind));
      }
    }
  });

  const auto start = Clock::now();
  std::vector<std::thread> producers;
  producers.reserve(static_cast<std::size_t>(shards));
  for (int p = 0; p < shards && seconds > 0.0; ++p) {
    producers.emplace_back(
        [&svc, p, seconds, &replays] { produce(svc, p, seconds, replays); });
  }
  for (auto& th : producers) {
    th.join();
  }
  svc.stop();  // drains every shard to quiescence
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  ShardSoakResult res;
  res.shards = shards;
  res.audited = audited.load();
  res.violations = violations.load();
  std::vector<std::int64_t> hist;
  for (const ShardStats& st : svc.stats()) {
    res.opened += st.opened;
    res.ops += st.ops;
    res.shard_ops.push_back(st.ops);
    res.decided += st.decided;
    res.timed_out += st.timed_out;
    res.dedup_hits += st.dedup_hits;
    res.dedup_records += st.dedup_records;
    res.gc_sweeps += st.gc_sweeps;
    res.live_at_exit += st.live_at_exit;
    res.blocks_carved += st.blocks_carved;
    res.block_reuses += st.block_reuses;
    res.ticks = std::max(res.ticks, st.ticks);
    res.inbox_peak =
        std::max(res.inbox_peak, static_cast<std::int64_t>(st.inbox_peak));
    res.pinned_workers += st.pinned ? 1 : 0;
    res.peak_live_min = res.peak_live_min == 0
                            ? st.peak_live
                            : std::min(res.peak_live_min, st.peak_live);
    res.peak_live_max = std::max(res.peak_live_max, st.peak_live);
    if (st.latency_hist.size() > hist.size()) {
      hist.resize(st.latency_hist.size(), 0);
    }
    for (std::size_t i = 0; i < st.latency_hist.size(); ++i) {
      hist[i] += st.latency_hist[i];
    }
    // The service never issues illegal ops: a hang is a violation.
    res.violations += st.hung_ops;
  }
  res.ops_per_sec = static_cast<double>(res.ops) / std::max(elapsed, 1e-9);
  res.p50_ticks = hist_percentile(hist, 0.50);
  res.p99_ticks = hist_percentile(hist, 0.99);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 2.0;
  const double soak_seconds = argc > 2 ? std::atof(argv[2]) : 4.0;
  const int audit_percent =
      argc > 3 ? std::min(100, std::max(0, std::atoi(argv[3]))) : 25;
  std::printf(
      "F8: soak — %.1f s of adversarial schedules per workload, %.1f s "
      "sharded agreement-as-a-service (audit %d%%)\n\n",
      seconds, soak_seconds, audit_percent);

  const std::vector<Workload> workloads{
      {"algorithm2_k6",
       [](SchedulePolicy& driver) {
         Runtime rt;
         WrnSetConsensus task(6);
         const std::vector<Value> inputs{1, 2, 3, 4, 5, 6};
         for (int p = 0; p < 6; ++p) {
           rt.add_process([&, p](Context& ctx) {
             ctx.decide(
                 task.propose(ctx, p, inputs[static_cast<std::size_t>(p)]));
           });
         }
         const auto run = rt.run(driver);
         check_all_done_and_decided(run);
         check_set_consensus(run, inputs, 5);
       }},
      {"algorithm5_k4_linearizable",
       [](SchedulePolicy& driver) {
         Runtime rt;
         WrnFromSse object(4);
         History history;
         for (int p = 0; p < 4; ++p) {
           rt.add_process([&, p](Context& ctx) {
             object.one_shot_wrn(ctx, p, 100 + p, &history);
           });
         }
         rt.run(driver);
         require_linearizable(OneShotWrnSpec{4}, history);
       }},
      {"algorithm3_k3",
       [](SchedulePolicy& driver) {
         Runtime rt;
         AnonymousSetConsensus task(3, 3);
         const std::vector<Value> inputs{7, 8, 9};
         for (int p = 0; p < 3; ++p) {
           rt.add_process([&, p](Context& ctx) {
             ctx.decide(task.propose(ctx, p, 900 + p,
                                     inputs[static_cast<std::size_t>(p)]));
           });
         }
         const auto run = rt.run(driver, 10'000'000);
         check_all_done_and_decided(run);
         check_set_consensus(run, inputs, 2);
       }},
      {"bg_simulation_352",
       [](SchedulePolicy& driver) {
         Runtime rt;
         BgSimulation bg(3, 5, 2);
         const std::vector<Value> inputs{10, 20, 30};
         for (int s = 0; s < 3; ++s) {
           rt.add_process([&, s](Context& ctx) {
             ctx.decide(bg.run_simulator(
                 ctx, s, inputs[static_cast<std::size_t>(s)]));
           });
         }
         const auto run = rt.run(driver, 10'000'000);
         check_all_done_and_decided(run);
         check_set_consensus(run, inputs, 2);
       }},
      {"immediate_snapshot_n5",
       [](SchedulePolicy& driver) {
         Runtime rt;
         ImmediateSnapshot is(5);
         std::vector<std::vector<ImmediateSnapshot::Member>> views(5);
         for (int p = 0; p < 5; ++p) {
           rt.add_process([&, p](Context& ctx) {
             views[static_cast<std::size_t>(p)] =
                 is.participate(ctx, p, 100 + p);
           });
         }
         rt.run(driver);
         // Containment spot-check: view sizes must be pairwise comparable
         // (full property sweeps live in the tests).
         for (int a = 0; a < 5; ++a) {
           bool self = false;
           for (const auto& member : views[static_cast<std::size_t>(a)]) {
             self = self || member.slot == a;
           }
           if (!self) {
             throw SpecViolation("self-inclusion violated");
           }
         }
       }},
      {"safe_agreement_adopt_commit_mix",
       [](SchedulePolicy& driver) {
         Runtime rt;
         SafeAgreement sa(4);
         AdoptCommit ac(4);
         std::vector<Value> agreed(4, kBottom);
         for (int p = 0; p < 4; ++p) {
           rt.add_process([&, p](Context& ctx) {
             sa.propose(ctx, p, 50 + p);
             agreed[static_cast<std::size_t>(p)] = sa.await(ctx);
             ac.propose(ctx, p, agreed[static_cast<std::size_t>(p)]);
           });
         }
         rt.run(driver);
         for (const Value v : agreed) {
           if (v != agreed[0]) {
             throw SpecViolation("safe agreement drift");
           }
         }
       }},
  };

  bool ok = true;
  long total = 0;
  long total_stuck = 0;
  const AllocCounters before_legacy = alloc_counters();
  std::printf("%-34s %12s %14s %8s %18s\n", "workload", "runs", "runs/sec",
              "stuck", "seed_base");
  std::vector<subc_bench::Json> rows;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const Workload& workload = workloads[w];
    // Disjoint, reproducible seed streams: workload w draws from
    // [(w+1)<<32, (w+2)<<32), so no two workloads share a schedule prefix.
    const std::uint64_t seed_base = (static_cast<std::uint64_t>(w) + 1) << 32;
    const auto start = Clock::now();
    const SoakOutcome outcome = soak_one(workload, seconds, seed_base);
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    ok = ok && outcome.ok;
    total += outcome.runs;
    total_stuck += outcome.stuck;
    const double per_sec = outcome.runs / std::max(elapsed, 1e-9);
    std::printf("%-34s %12ld %14.0f %8ld %#18llx\n", workload.name,
                outcome.runs, per_sec, outcome.stuck,
                static_cast<unsigned long long>(seed_base));
    subc_bench::Json row;
    row.set("workload", workload.name)
        .set("runs", static_cast<std::int64_t>(outcome.runs))
        .set("runs_per_sec", per_sec)
        .set("stuck_runs", static_cast<std::int64_t>(outcome.stuck))
        .set("seed_base", static_cast<std::int64_t>(seed_base));
    rows.push_back(row);
  }
  const AllocCounters legacy_delta = alloc_counters_delta(before_legacy);
  std::printf("\ntotal validated executions: %ld, stuck: %ld, violations: %s\n",
              total, total_stuck, ok ? "0" : "SOME (see above)");

  // --- Stage 2: sharded agreement as a service ----------------------------
  const std::vector<int> cpus = usable_cpus();
  constexpr int kConfigs[] = {1, 2, 4, 8};
  const double per_config = soak_seconds / 4.0;
  const AllocCounters before_service = alloc_counters();
  std::printf(
      "\nsharded service soak (%zu usable cpus, %.2f s per configuration):\n"
      "%7s %12s %12s %10s %10s %8s %6s %6s %16s %7s\n",
      cpus.size(), per_config, "shards", "ops", "ops/sec", "decided",
      "timedout", "dedup", "p50", "p99", "peak_live/shard", "pinned");
  std::vector<ShardSoakResult> results;
  std::vector<subc_bench::Json> config_rows;
  for (const int shards : kConfigs) {
    const ShardSoakResult res =
        run_sharded_soak(shards, per_config, audit_percent);
    std::printf("%7d %12lld %12.0f %10lld %10lld %8lld %6.0f %6.0f %7lld..%-7lld %4d/%d\n",
                res.shards, static_cast<long long>(res.ops), res.ops_per_sec,
                static_cast<long long>(res.decided),
                static_cast<long long>(res.timed_out),
                static_cast<long long>(res.dedup_hits), res.p50_ticks,
                res.p99_ticks, static_cast<long long>(res.peak_live_min),
                static_cast<long long>(res.peak_live_max), res.pinned_workers,
                res.shards);
    subc_bench::Json row;
    row.set("shards", res.shards)
        .set("ops", res.ops)
        .set("ops_per_sec", res.ops_per_sec)
        .set("opened", res.opened)
        .set("decided", res.decided)
        .set("timed_out", res.timed_out)
        .set("dedup_hits", res.dedup_hits)
        .set("dedup_records", res.dedup_records)
        .set("audited", res.audited)
        .set("violations", res.violations)
        .set("p50_ticks", res.p50_ticks)
        .set("p99_ticks", res.p99_ticks)
        .set("peak_live_min", res.peak_live_min)
        .set("peak_live_max", res.peak_live_max)
        .set("live_at_exit", res.live_at_exit)
        .set("inbox_peak", res.inbox_peak)
        .set("shard_ops", res.shard_ops)
        .set("pinned_workers", res.pinned_workers);
    config_rows.push_back(row);
    results.push_back(res);
  }
  const AllocCounters service_delta = alloc_counters_delta(before_service);

  const ShardSoakResult& r1 = results[0];
  const ShardSoakResult& r4 = results[2];
  const double scaling_x =
      r1.ops_per_sec > 0.0 ? r4.ops_per_sec / r1.ops_per_sec : 1.0;
  // 4 workers + 4 producers need 8 cores before wall-clock scaling is a
  // meaningful promise; smaller hosts stamp the measured ratio but gate
  // throughput via the committed perf baseline instead.
  const bool scaling_gated = soak_seconds > 0.0 && cpus.size() >= 8;
  std::printf("  aggregate scaling at 4 shards vs 1: %.2fx (%s)\n", scaling_x,
              scaling_gated ? "gated >= 2.5x" : "not gated on this host");

  std::int64_t all_audited = 0;
  std::int64_t all_violations = 0;
  std::int64_t all_dedup_hits = 0;
  for (const ShardSoakResult& res : results) {
    all_audited += res.audited;
    all_violations += res.violations;
    all_dedup_hits += res.dedup_hits;
    if (res.violations != 0) {
      ok = false;
    }
    if (res.live_at_exit != 0) {
      std::printf("  !! %d-shard config leaked %lld live instances\n",
                  res.shards, static_cast<long long>(res.live_at_exit));
      ok = false;
    }
    if (soak_seconds > 0.0 && res.peak_live_min < 1000) {
      std::printf("  !! %d-shard config: peak live %lld/shard < 1000\n",
                  res.shards, static_cast<long long>(res.peak_live_min));
      ok = false;
    }
  }
  if (scaling_gated && scaling_x < 2.5) {
    std::printf("  !! 4-shard scaling %.2fx < 2.5x with %zu usable cpus\n",
                scaling_x, cpus.size());
    ok = false;
  }
  std::printf("  audited %lld, violations %lld, cross-shard dedup hits %lld\n",
              static_cast<long long>(all_audited),
              static_cast<long long>(all_violations),
              static_cast<long long>(all_dedup_hits));

  subc_bench::Json out;
  out.set("bench", "F8")
      .set("seconds_per_workload", seconds)
      .set("soak_seconds", soak_seconds)
      .set("audit_percent", audit_percent)
      .set("total_runs", static_cast<std::int64_t>(total))
      .set("total_stuck", static_cast<std::int64_t>(total_stuck))
      .set("workloads", rows)
      .set("pass", ok);
  // Headline soak_* cells describe the 4-shard configuration: sustained
  // throughput, decision latency in virtual-clock ticks, the instance-table
  // high-water mark and GC volume, per-shard applied ops, and
  // soak_scaling_x (4-shard over 1-shard ops/s, stamped as measured even
  // where the scaling self-gate is off). Violations, the audit total and
  // the cross-shard dedup hits cover all four configurations (the
  // self-gates span them all); soak_violations must stay 0.
  out.set("soak_ops_per_sec", r4.ops_per_sec)
      .set("soak_p50_ticks", r4.p50_ticks)
      .set("soak_p99_ticks", r4.p99_ticks)
      .set("soak_peak_live", r4.peak_live_max)
      .set("soak_instances_gcd", r4.decided + r4.timed_out)
      .set("soak_audited", all_audited)
      .set("soak_violations", all_violations)
      .set("soak_shards", r4.shards)
      .set("soak_shard_ops", r4.shard_ops)
      .set("soak_dedup_hits", all_dedup_hits)
      .set("soak_scaling_x", scaling_x)
      .set("soak_decisions", r4.decided)
      .set("soak_timed_out", r4.timed_out)
      .set("soak_ticks", r4.ticks)
      .set("soak_blocks_carved", r4.blocks_carved)
      .set("soak_block_reuses", r4.block_reuses)
      .set("soak_scaling_gated", scaling_gated)
      .set("soak_usable_cpus", static_cast<std::int64_t>(cpus.size()))
      .set("soak_ops_per_sec_1shard", r1.ops_per_sec)
      .set("soak_ops_per_sec_4shard", r4.ops_per_sec)
      .set("soak_configs", config_rows);
  // Per-stage allocator deltas: the legacy stage churns fiber stacks and
  // world arenas; the service stage should be instance blocks only.
  out.set("alloc_delta_legacy", subc_bench::alloc_counter_cell(legacy_delta))
      .set("alloc_delta_service",
           subc_bench::alloc_counter_cell(service_delta));
  subc_bench::write_json("BENCH_F8.json", out);
  std::printf("\nF8 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
