// Workload `service`: the sharded agreement service at 2 shards, fed by one
// producer thread with the F8 request mix — three instance kinds, 16
// weighted validators, ~1/16 of participants offline, ~1/64 replays. The
// explorer is bypassed entirely; the inbox, worker tick, instance table,
// dedup memo and the audit in the decide callback carry the load.
//
// Two phases use those layers in two ways:
//  * paced — an open loop at a fixed request rate; each decision's latency
//    runs from the request's due time to its decide callback, so a stall
//    also charges the requests queued behind it;
//  * saturated — rounds of a fixed request count pushed as fast as the
//    inboxes admit (backpressure is the only throttle), drained by stop().
//
// Failure rule: a request whose online (non-offline) participant weight
// reaches the 2/3 quorum must decide — by its own instance, or by a dedup
// hit on an earlier decision of the same logical request. Requests whose
// quorum is unreachable time out by design and are not failures, but every
// one of them must time out and none may decide. Audit violations, hung
// ops and undrained shards are failures too.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

#include "subc/checking/linearizability.hpp"
#include "subc/runtime/service.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace subc;

constexpr int kShards = 2;
constexpr double kPacedRate = 100'000.0;  ///< requests per second
/// Paced latency percentiles are taken per 0.1 s window of due times (~10k
/// decisions each) and the median window reported: a stall that lands in
/// fewer than half the windows does not set the run's tail. On a shared
/// host, preemptions of 10-40 ms hit most 0.5 s windows of a run but only a
/// few 0.1 s ones. `producer.late_max_us` and `service.inbox_peak` still
/// show stalls.
constexpr double kWindowS = 0.1;
constexpr std::int64_t kSaturatedRequests = 100'000;  ///< per round
/// Undecided instances time out this many virtual ticks after their open
/// (the F8 soak uses 40). A request's ops reach its shard right after its
/// open unless the producer thread is descheduled in between, and an idle
/// shard ticks every 200 µs; with 40 ticks and op delays up to 25, a 3 ms
/// host preemption of the producer timed out requests whose quorum was
/// reachable. At 1000 ticks that takes a ~0.2 s stall.
constexpr int kTimeoutTicks = 1000;
constexpr int kValidators = 16;
constexpr unsigned kWeights[kValidators] = {180, 140, 120, 100, 90, 80, 70,
                                            60,  45,  35,  25,  20, 15, 10,
                                            6,   4};

struct Request {
  OpenSpec spec;
  std::vector<OpSpec> ops;
  bool reachable = false;
};

/// The F8 request generator, driven by the benchmark seed.
Request make_request(std::mt19937_64& rng, std::uint64_t seq,
                     std::uint64_t salt, const ServiceOptions& opts) {
  const auto pick = [&rng](std::uint64_t bound) { return rng() % bound; };
  Request req;
  const int participants = 3 + static_cast<int>(pick(4));
  int chosen[6];
  int got = 0;
  while (got < participants) {
    const int v = static_cast<int>(pick(kValidators));
    if (std::find(chosen, chosen + got, v) == chosen + got) {
      chosen[got++] = v;
    }
  }
  switch (pick(3)) {
    case 0:  // 1sWRN_k, one slot per participant
      req.spec.kind = InstanceKind::kOneShotWrn;
      req.spec.a = participants;
      req.spec.spec_k = participants;
      break;
    case 1: {  // GAC(n, 0..2)
      const int level = static_cast<int>(pick(3));
      req.spec.kind = InstanceKind::kGac;
      req.spec.a = participants;
      req.spec.b = level;
      req.spec.spec_k = level + 1;
      break;
    }
    default: {  // (n, k)-set consensus, n = participants + 1 > k >= 1
      const int k = 1 + static_cast<int>(
                            pick(static_cast<std::uint64_t>(participants) - 1));
      req.spec.kind = InstanceKind::kSetConsensus;
      req.spec.a = participants + 1;
      req.spec.b = k;
      req.spec.spec_k = k;
    }
  }
  unsigned online = 0;
  for (int c = 0; c < participants; ++c) {
    const int validator = chosen[c];
    req.spec.total_weight += kWeights[validator];
    if (pick(16) == 0) {
      continue;  // offline participant
    }
    OpSpec op;
    op.validator = validator;
    op.weight = kWeights[validator];
    op.slot = c;
    op.value = static_cast<Value>(1000 + validator);
    op.delay_ticks = 1 + static_cast<int>(pick(
                             static_cast<std::uint64_t>(opts.horizon_ticks)));
    req.ops.push_back(op);
    online += op.weight;
  }
  req.reachable = static_cast<std::uint64_t>(online) * opts.quorum_den >=
                  static_cast<std::uint64_t>(req.spec.total_weight) *
                      opts.quorum_num;
  const std::uint64_t fp = detail::mix64(salt ^ seq);
  req.spec.request_fp = fp == 0 ? 1 : fp;
  return req;
}

/// Audits one decision: 1sWRN histories through the linearizability
/// checker, GAC / set consensus for validity and k-agreement.
bool audit(const DecidedView& view) {
  if (view.block->kind == InstanceKind::kOneShotWrn) {
    try {
      require_linearizable(OneShotWrnSpec{view.block->wrn.k},
                           view.block->history);
    } catch (const std::exception&) {
      return false;
    }
    return true;
  }
  std::vector<Value> distinct;
  for (const Value r : *view.responses) {
    if (std::find(view.proposals->begin(), view.proposals->end(), r) ==
        view.proposals->end()) {
      return false;
    }
    if (std::find(distinct.begin(), distinct.end(), r) == distinct.end()) {
      distinct.push_back(r);
    }
  }
  return static_cast<int>(distinct.size()) <= view.spec_k;
}

/// Worker-side record of one shard's decisions (written only by that
/// shard's worker thread, read after stop()).
struct ShardLog {
  /// Paced decide latencies, by window of the request's due time.
  std::vector<std::vector<double>> latency_us;
  std::int64_t decided = 0;
  std::int64_t unreachable_decided = 0;
  std::int64_t violations = 0;
  std::int64_t callback_ns = 0;
};

/// One service lifetime: construct, feed one producer, stop, check.
struct PhaseResult {
  std::int64_t requests = 0;
  std::int64_t reachable = 0;
  std::int64_t replays = 0;
  std::int64_t wall_ns = 0;  ///< first open → stop() returned
  std::int64_t ctor_ns = 0;
  std::int64_t stop_ns = 0;
  std::int64_t producer_ns = 0;  ///< producer loop wall
  std::int64_t gen_ns = 0;       ///< traced: request generation
  std::int64_t open_ns = 0;      ///< traced: Σ open()
  std::int64_t submit_ns = 0;    ///< traced: Σ submit()
  std::int64_t submits = 0;
  std::vector<double> late_us;   ///< paced: issue time − due time
  std::vector<ShardLog> logs;
  std::vector<ShardStats> stats;
};

class Phase {
 public:
  Phase(const Config& cfg, std::uint64_t stream, std::int64_t requests,
        double rate)
      : cfg_(cfg), stream_(stream), requests_(requests), rate_(rate) {
    opts_.shards = kShards;
    opts_.timeout_ticks = kTimeoutTicks;
    due_.assign(static_cast<std::size_t>(requests) + 1, 0);
    reachable_.assign(static_cast<std::size_t>(requests) + 1, 0);
  }

  PhaseResult run() {
    PhaseResult res;
    res.logs.resize(kShards);
    const auto windows = static_cast<std::size_t>(
        rate_ > 0 ? std::ceil(static_cast<double>(requests_) / rate_ / kWindowS)
                  : 0);
    for (ShardLog& log : res.logs) {
      log.latency_us.resize(windows);
    }
    if (rate_ > 0) {
      res.late_us.reserve(static_cast<std::size_t>(requests_));
    }
    const bool traced = Tracer::on();
    const std::int64_t c0 = now_ns();
    ShardedService svc(opts_, [&](const DecidedView& view) {
      const std::int64_t t0 = now_ns();
      ShardLog& log = res.logs[static_cast<std::size_t>(view.shard)];
      ++log.decided;
      if (view.id >= due_.size() || reachable_[view.id] == 0) {
        ++log.unreachable_decided;
      } else if (rate_ > 0) {
        const auto since_start =
            static_cast<double>(due_[view.id] - start_) / 1e9;
        const auto w =
            std::min(log.latency_us.size() - 1,
                     static_cast<std::size_t>(since_start / kWindowS));
        log.latency_us[w].push_back(
            static_cast<double>(t0 - due_[view.id]) / 1e3);
      }
      if (!audit(view)) {
        ++log.violations;
      }
      if (traced) {
        log.callback_ns += now_ns() - t0;
      }
    });
    res.ctor_ns = now_ns() - c0;

    std::mt19937_64 rng(cfg_.seed ^ stream_);
    std::vector<Request> reservoir;
    const std::uint64_t salt = detail::mix64(cfg_.seed + stream_);
    const double period_ns = rate_ > 0 ? 1e9 / rate_ : 0.0;
    // Due times count from here. Written before the first open, so every
    // decide callback (after its ops were drained) sees it.
    start_ = now_ns();
    const std::int64_t start = start_;
    for (std::int64_t i = 0; i < requests_; ++i) {
      std::int64_t due = now_ns();
      if (rate_ > 0) {
        due = start + static_cast<std::int64_t>(static_cast<double>(i) *
                                                period_ns);
        std::int64_t t = due;
        while ((t = now_ns()) < due) {
        }
        res.late_us.push_back(static_cast<double>(t - due) / 1e3);
      }
      const std::int64_t g0 = traced ? now_ns() : 0;
      const Request* req = nullptr;
      Request fresh;
      if (!reservoir.empty() && rng() % 64 == 0) {
        req = &reservoir[rng() % reservoir.size()];
        ++res.replays;
      } else {
        fresh = make_request(rng, static_cast<std::uint64_t>(i), salt, opts_);
        req = &fresh;
      }
      const std::int64_t g1 = traced ? now_ns() : 0;
      const ServiceId id = svc.open(req->spec);
      const std::int64_t g2 = traced ? now_ns() : 0;
      if (id < due_.size()) {
        due_[id] = due;
        reachable_[id] = req->reachable ? 1 : 0;
      }
      for (const OpSpec& op : req->ops) {
        svc.submit(id, op);
      }
      if (traced) {
        const std::int64_t g3 = now_ns();
        res.gen_ns += g1 - g0;
        res.open_ns += g2 - g1;
        res.submit_ns += g3 - g2;
        res.submits += static_cast<std::int64_t>(req->ops.size());
      }
      ++res.requests;
      res.reachable += req->reachable ? 1 : 0;
      if (req == &fresh) {
        if (reservoir.size() < 128) {
          reservoir.push_back(std::move(fresh));
        } else if (rng() % 4 == 0) {
          reservoir[rng() % reservoir.size()] = std::move(fresh);
        }
      }
    }
    const std::int64_t s0 = now_ns();
    res.producer_ns = s0 - start;
    svc.stop();
    const std::int64_t s1 = now_ns();
    res.stop_ns = s1 - s0;
    res.wall_ns = s1 - start;
    res.stats = svc.stats();
    return res;
  }

 private:
  const Config& cfg_;
  std::uint64_t stream_;
  std::int64_t requests_;
  double rate_;
  ServiceOptions opts_;
  /// Indexed by service id (ids are dense from 1 within one service).
  /// Written by the producer before the request's ops are submitted, read
  /// by the deciding worker after it drained them.
  std::vector<std::int64_t> due_;
  std::vector<std::uint8_t> reachable_;
  std::int64_t start_ = 0;
};

/// Applies the failure rule to one phase: every request is one attempt.
void check_phase(Report& rep, const PhaseResult& p, const char* name) {
  std::int64_t decided = 0, dedup = 0, timed_out = 0, hung = 0, live = 0;
  std::int64_t logged = 0, unreachable_decided = 0, violations = 0;
  for (const ShardStats& st : p.stats) {
    decided += st.decided;
    dedup += st.dedup_hits;
    timed_out += st.timed_out;
    hung += st.hung_ops;
    live += st.live_at_exit;
  }
  for (const ShardLog& log : p.logs) {
    logged += log.decided;
    unreachable_decided += log.unreachable_decided;
    violations += log.violations;
  }
  const std::int64_t unreachable = p.requests - p.reachable;
  const std::int64_t undecided = std::max<std::int64_t>(
      0, p.reachable - decided - dedup);
  const std::int64_t failed = undecided + unreachable_decided + violations +
                              hung + live +
                              std::abs(timed_out - unreachable) +
                              std::abs(logged - decided);
  std::printf("service %s: %lld requests (%lld reachable), %lld decided, "
              "%lld dedup hits, %lld timed out, %lld audit violations, "
              "%lld hung ops, %lld live at exit\n",
              name, static_cast<long long>(p.requests),
              static_cast<long long>(p.reachable),
              static_cast<long long>(decided), static_cast<long long>(dedup),
              static_cast<long long>(timed_out),
              static_cast<long long>(violations),
              static_cast<long long>(hung), static_cast<long long>(live));
  rep.count(p.requests, std::min(failed, p.requests),
            std::string("service ") + name + " phase failure rule");
}

std::int64_t sum(const std::vector<ShardStats>& stats,
                 std::int64_t ShardStats::*field) {
  std::int64_t s = 0;
  for (const ShardStats& st : stats) {
    s += st.*field;
  }
  return s;
}

struct ServiceRun {
  PhaseResult paced;
  std::vector<PhaseResult> saturated;
};

/// Runs the paced phase then saturated rounds within `seconds`.
ServiceRun run_phases(const Config& cfg, Report& rep, double seconds,
                      std::uint64_t stream) {
  ServiceRun out;
  const auto paced_requests =
      static_cast<std::int64_t>(0.4 * seconds * kPacedRate);
  out.paced = Phase(cfg, stream, paced_requests, kPacedRate).run();
  check_phase(rep, out.paced, "paced");
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(0.6 * seconds * 1e9);
  std::uint64_t round = 0;
  do {
    out.saturated.push_back(
        Phase(cfg, stream + 1 + round++, kSaturatedRequests, 0.0).run());
    check_phase(rep, out.saturated.back(), "saturated");
  } while (now_ns() < deadline);
  return out;
}

double ops_per_s(const PhaseResult& p) {
  return static_cast<double>(sum(p.stats, &ShardStats::ops)) /
         (static_cast<double>(p.wall_ns) / 1e9);
}

}  // namespace

Report run_service(const Config& cfg) {
  Report rep;
  // Set-up: bring a 2-shard service up (memo, inboxes, pinned workers).
  std::vector<double> ctor_s;
  for (int i = 0; i < 5; ++i) {
    ServiceOptions opts;
    opts.shards = kShards;
    const std::int64_t t0 = now_ns();
    ShardedService svc(opts);
    ctor_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    svc.stop();
  }
  const double setup_s = median(ctor_s);

  if (!cfg.trace) {
    ServiceRun ph = run_phases(cfg, rep, cfg.seconds, 0x5e4f1ce);
    std::vector<double> p50, p99;
    std::size_t decisions = 0;
    for (std::size_t w = 0; w < ph.paced.logs[0].latency_us.size(); ++w) {
      std::vector<double> lat;
      for (const ShardLog& log : ph.paced.logs) {
        lat.insert(lat.end(), log.latency_us[w].begin(),
                   log.latency_us[w].end());
      }
      decisions += lat.size();
      p50.push_back(quantile(lat, 0.50));
      p99.push_back(quantile(lat, 0.99));
    }
    std::vector<double> wall, ops, execs;
    for (const PhaseResult& p : ph.saturated) {
      const double s = static_cast<double>(p.wall_ns) / 1e9;
      wall.push_back(s);
      ops.push_back(ops_per_s(p));
      const std::int64_t finished = sum(p.stats, &ShardStats::decided) +
                                    sum(p.stats, &ShardStats::timed_out) +
                                    sum(p.stats, &ShardStats::dedup_hits);
      execs.push_back(static_cast<double>(finished) / s);
    }
    rep.metrics["setup_s"] = setup_s;
    rep.metrics["verdict_s"] = median(wall);
    rep.metrics["exec_per_s"] = median(execs);
    rep.metrics["ops_per_s"] = median(ops);
    rep.metrics["decide_p50_us"] = median(p50);
    rep.metrics["decide_p99_us"] = median(p99);
    std::printf("service: %zu paced decisions in %zu windows, %zu saturated "
                "rounds\n",
                decisions, p50.size(), ph.saturated.size());
    return rep;
  }

  const ServiceRun plain = run_phases(cfg, rep, cfg.seconds / 2, 0x5e4f1ce);
  ServiceRun traced;
  const AllocCounters alloc = traced_window(
      [&] { traced = run_phases(cfg, rep, cfg.seconds / 2, 0x5e4f1ce); });

  auto& m = rep.metrics;
  const auto per = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  const PhaseResult& paced = traced.paced;

  std::vector<double> plain_ops, traced_ops, ctor_ms, stop_ms;
  for (const PhaseResult& p : plain.saturated) {
    plain_ops.push_back(ops_per_s(p));
  }
  std::int64_t opens = 0, open_ns = 0, submits = 0, submit_ns = 0;
  std::int64_t producer_ns = 0, gen_ns = 0, msgs = 0, ticks = 0, replays = 0;
  std::int64_t dedup = 0, carved = 0, reuses = 0, peak_live = 0;
  double skew = 0;
  for (const PhaseResult& p : traced.saturated) {
    traced_ops.push_back(ops_per_s(p));
    ctor_ms.push_back(d(p.ctor_ns) / 1e6);
    stop_ms.push_back(d(p.stop_ns) / 1e6);
    opens += p.requests;
    open_ns += p.open_ns;
    submits += p.submits;
    submit_ns += p.submit_ns;
    producer_ns += p.producer_ns;
    gen_ns += p.gen_ns;
    msgs += sum(p.stats, &ShardStats::msgs_open) +
            sum(p.stats, &ShardStats::msgs_op);
    ticks += sum(p.stats, &ShardStats::ticks);
    replays += p.replays;
    dedup += sum(p.stats, &ShardStats::dedup_hits);
    carved += sum(p.stats, &ShardStats::blocks_carved);
    reuses += sum(p.stats, &ShardStats::block_reuses);
    std::int64_t most = 0;
    for (const ShardStats& st : p.stats) {
      most = std::max(most, st.ops);
      peak_live = std::max(peak_live, st.peak_live);
    }
    skew = std::max(
        skew, per(d(most) * kShards, d(sum(p.stats, &ShardStats::ops))));
  }
  m["service.ctor_ms"] = median(ctor_ms);
  m["service.open_ns"] = per(d(open_ns), d(opens));
  m["service.submit_ns"] = per(d(submit_ns), d(submits));
  m["service.stop_ms"] = median(stop_ms);
  m["service.msgs_per_tick"] = per(d(msgs), d(ticks));
  m["service.dedup_hit_frac"] = per(d(dedup), d(replays));
  m["service.shard_skew"] = skew;
  const std::int64_t paced_ticks = sum(paced.stats, &ShardStats::ticks);
  m["service.tick_us"] =
      per(d(paced.producer_ns) / 1e3, d(paced_ticks) / kShards);
  std::int64_t cb_ns = 0, cb = 0;
  for (const ShardLog& log : paced.logs) {
    cb_ns += log.callback_ns;
    cb += log.decided;
  }
  m["service.callback_ns"] = per(d(cb_ns), d(cb));
  std::size_t inbox_peak = 0;
  for (const ShardStats& st : paced.stats) {
    inbox_peak = std::max(inbox_peak, st.inbox_peak);
  }
  m["service.inbox_peak"] = d(static_cast<std::int64_t>(inbox_peak));
  m["service.timed_out"] = d(sum(paced.stats, &ShardStats::timed_out));
  m["service.orphan_ops"] = d(sum(paced.stats, &ShardStats::orphan_ops));
  m["service.skipped_ops"] = d(sum(paced.stats, &ShardStats::skipped_ops));
  m["instance.block_reuse_frac"] = per(d(reuses), d(carved + reuses));
  m["instance.peak_live"] = d(peak_live);
  std::vector<double> late = paced.late_us;
  m["producer.late_p99_us"] = quantile(late, 0.99);
  m["producer.late_max_us"] = late.empty() ? 0.0 : late.back();
  m["arena.chunks"] = d(static_cast<std::int64_t>(alloc.arena_chunks));
  m["arena.bytes"] = d(static_cast<std::int64_t>(alloc.arena_bytes));
  m["trace.overhead_frac"] = median(plain_ops) / median(traced_ops) - 1.0;
  // The producer thread's wall against its timed parts.
  m["trace.unaccounted_frac"] =
      per(d(producer_ns - gen_ns - open_ns - submit_ns), d(producer_ns));
  return rep;
}

}  // namespace perfbench
