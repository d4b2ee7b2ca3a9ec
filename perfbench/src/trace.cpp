#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

Tally& Tally::operator+=(const Tally& o) {
  bodies += o.bodies;
  completed += o.completed;
  body_ns += o.body_ns;
  build_ns += o.build_ns;
  run_ns += o.run_ns;
  check_ns += o.check_ns;
  teardown_ns += o.teardown_ns;
  checks += o.checks;
  sched_calls += o.sched_calls;
  sched_ns += o.sched_ns;
  grants += o.grants;
  probes += o.probes;
  probe_cuts += o.probe_cuts;
  hash_ns += o.hash_ns;
  fiber_self_ns += o.fiber_self_ns;
  fiber_steps += o.fiber_steps;
  stepped_self_ns += o.stepped_self_ns;
  stepped_steps += o.stepped_steps;
  return *this;
}

Tally& Tracer::local() {
  thread_local Tally* mine = nullptr;
  if (mine == nullptr) {
    const std::lock_guard<std::mutex> lk(mu_);
    tallies_.push_back(std::make_unique<Tally>());
    mine = tallies_.back().get();
  }
  return *mine;
}

Tally Tracer::total() {
  const std::lock_guard<std::mutex> lk(mu_);
  Tally sum;
  for (const auto& t : tallies_) {
    sum += *t;
  }
  return sum;
}

void Tracer::reset() {
  const std::lock_guard<std::mutex> lk(mu_);
  for (const auto& t : tallies_) {
    *t = Tally{};
  }
}

void Tracer::begin_call() noexcept {
  first_entry_.store(std::numeric_limits<std::int64_t>::max());
  last_exit_.store(0);
}

void Tracer::note_body(std::int64_t entry, std::int64_t exit) noexcept {
  std::int64_t seen = first_entry_.load(std::memory_order_relaxed);
  while (entry < seen && !first_entry_.compare_exchange_weak(seen, entry)) {
  }
  seen = last_exit_.load(std::memory_order_relaxed);
  while (exit > seen && !last_exit_.compare_exchange_weak(seen, exit)) {
  }
}

namespace {

/// Adds the elapsed time since construction to `acc` on scope exit, also
/// when the forwarded call throws (the explorer's cuts unwind through it).
struct Span {
  std::int64_t& acc;
  std::int64_t t0 = now_ns();
  ~Span() { acc += now_ns() - t0; }
};

}  // namespace

Probe::Probe(subc::SchedulePolicy& inner, subc::Engine engine) noexcept
    : inner_(inner), engine_(engine), entry_(now_ns()) {}

Probe::~Probe() {
  const std::int64_t exit = now_ns();
  Tally& t = Tracer::local();
  ++t.bodies;
  t.body_ns += exit - entry_;
  t.checks += checks_;
  t.check_ns += check_ns_;
  t.sched_calls += sched_calls_;
  t.sched_ns += sched_ns_;
  t.probes += probes_;
  t.probe_cuts += probe_cuts_;
  t.hash_ns += hash_ns_;
  // The phases partition the body: build up to `built`, run up to `ran`
  // (or to exit when a cut or violation unwound the run), then the checks,
  // and whatever remains after the run is teardown.
  const std::int64_t built = built_ != 0 ? built_ : exit;
  t.build_ns += built - entry_;
  if (ran_ != 0) {
    ++t.completed;
    t.run_ns += ran_ - built;
    t.teardown_ns += exit - ran_ - check_ns_;
    const std::int64_t self = (ran_ - built) - sched_ns_ - hash_ns_;
    if (engine_ == subc::Engine::kFiber) {
      t.fiber_self_ns += self;
      t.fiber_steps += steps_;
    } else {
      t.stepped_self_ns += self;
      t.stepped_steps += steps_;
    }
  } else {
    t.run_ns += exit - built - check_ns_;
  }
  Tracer::note_body(entry_, exit);
}

std::size_t Probe::pick(std::span<const int> enabled,
                        std::span<const subc::Access> footprints) {
  ++sched_calls_;
  const Span span{sched_ns_};
  const std::size_t idx = inner_.pick(enabled, footprints);
  ++steps_;
  return idx;
}

std::uint32_t Probe::choose(std::uint32_t arity) {
  ++sched_calls_;
  const Span span{sched_ns_};
  return inner_.choose(arity);
}

std::uint64_t Probe::crash_requests(std::span<const int> enabled) {
  ++sched_calls_;
  const Span span{sched_ns_};
  return inner_.crash_requests(enabled);
}

std::uint64_t Probe::recovery_requests(std::span<const int> crashed) {
  ++sched_calls_;
  const Span span{sched_ns_};
  return inner_.recovery_requests(crashed);
}

void Probe::on_state_fp(std::uint64_t fp, bool valid) {
  ++probes_;
  const Span span{hash_ns_};
  try {
    inner_.on_state_fp(fp, valid);
  } catch (const subc::StatefulCut&) {
    ++probe_cuts_;
    throw;
  }
}

void Probe::on_run_fp(std::uint64_t fp, bool valid) {
  const Span span{hash_ns_};
  inner_.on_run_fp(fp, valid);
}

subc::Explorer::Result timed_explore(const subc::ExecutionBody& body,
                                     const subc::Explorer::Options& opts,
                                     ExploreTally& tally) {
  const bool traced = Tracer::on();
  if (traced) {
    Tracer::begin_call();
  }
  const std::int64_t t0 = now_ns();
  subc::Explorer::Result r = subc::Explorer::explore(body, opts);
  const std::int64_t t1 = now_ns();
  const int workers = subc::Explorer::resolve_threads(opts.threads);
  ++tally.calls;
  tally.wall_ns += t1 - t0;
  tally.worker_ns += workers * (t1 - t0);
  if (traced && Tracer::last_exit() != 0) {
    tally.first_ns += Tracer::first_entry() - t0;
    tally.tail_ns += t1 - Tracer::last_exit();
  }
  tally.executions += r.executions;
  tally.reduced_subtrees += r.reduced_subtrees;
  tally.stateful_cuts += r.stateful_cuts;
  return r;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

}  // namespace perfbench
