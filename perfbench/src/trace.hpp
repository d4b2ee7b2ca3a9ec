// Outside-in layer timing for the benchmark.
//
// Nothing here reaches into the library: layers are timed at their public
// boundaries only.
//  * `Probe` is a forwarding `SchedulePolicy`. A traced execution body
//    builds its world against a Probe wrapped around the explorer's own
//    driver, so every scheduler call (pick / choose / crash / recovery) and
//    every fingerprint report (on_state_fp / on_run_fp) is timed on its way
//    through, and every capability query (wants_state_fp / wants_recovery /
//    begin_run) is forwarded untouched — the explorer sees exactly the
//    driver it handed out.
//  * `Phases` marks the body's own phase boundaries: world built, run
//    returned, and each validation call. With tracing off it only adds the
//    run's kernel grants to a thread-local count; the world runs on the
//    explorer's driver directly.
//  * `timed_explore` times each `Explorer::explore` call from outside and
//    derives the explorer's own share (call wall minus body time).
// Tallies are per thread (parallel explorer workers each run bodies) and
// merged on report.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "subc/runtime/explorer.hpp"
#include "subc/runtime/runtime.hpp"
#include "subc/runtime/scheduler.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-thread layer accumulators (all durations in ns).
struct Tally {
  std::int64_t bodies = 0;     ///< execution-body invocations
  std::int64_t completed = 0;  ///< bodies whose world ran to the end
  std::int64_t body_ns = 0;
  std::int64_t build_ns = 0;
  std::int64_t run_ns = 0;  ///< includes the scheduler and hashing calls
  std::int64_t check_ns = 0;
  std::int64_t teardown_ns = 0;
  std::int64_t checks = 0;
  std::int64_t sched_calls = 0;
  std::int64_t sched_ns = 0;
  /// Kernel grants of completed executions, counted traced or not.
  std::int64_t grants = 0;
  std::int64_t probes = 0;
  std::int64_t probe_cuts = 0;
  std::int64_t hash_ns = 0;  ///< on_state_fp + on_run_fp
  // Completed bodies only: kernel self time (run minus scheduler and
  // hashing) and granted picks, per engine.
  std::int64_t fiber_self_ns = 0;
  std::int64_t fiber_steps = 0;
  std::int64_t stepped_self_ns = 0;
  std::int64_t stepped_steps = 0;

  Tally& operator+=(const Tally& o);
};

/// Process-wide switch and registry of per-thread tallies.
class Tracer {
 public:
  static bool on() noexcept { return on_.load(std::memory_order_relaxed); }
  static void set(bool on) noexcept { on_.store(on); }

  /// The calling thread's tally (registered on first use).
  static Tally& local();
  /// Sum over every thread's tally. Call only while no explore runs.
  static Tally total();
  /// Zeroes every tally. Call only while no explore runs.
  static void reset();

  /// Explore-call window: earliest body entry and latest body exit.
  static void begin_call() noexcept;
  static void note_body(std::int64_t entry, std::int64_t exit) noexcept;
  static std::int64_t first_entry() noexcept { return first_entry_.load(); }
  static std::int64_t last_exit() noexcept { return last_exit_.load(); }

 private:
  static inline std::atomic<bool> on_{false};
  static inline std::atomic<std::int64_t> first_entry_{0};
  static inline std::atomic<std::int64_t> last_exit_{0};
  static inline std::mutex mu_;
  static inline std::vector<std::unique_ptr<Tally>> tallies_;
};

/// Forwarding policy + phase clock for one traced execution body.
class Probe final : public subc::SchedulePolicy {
 public:
  Probe(subc::SchedulePolicy& inner, subc::Engine engine) noexcept;
  ~Probe() override;

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  void mark_built() noexcept { built_ = now_ns(); }
  void mark_ran() noexcept { ran_ = now_ns(); }
  void add_check(std::int64_t ns) noexcept {
    check_ns_ += ns;
    ++checks_;
  }

  std::size_t pick(std::span<const int> enabled,
                   std::span<const subc::Access> footprints = {}) override;
  std::uint32_t choose(std::uint32_t arity) override;
  std::uint64_t crash_requests(std::span<const int> enabled) override;
  std::uint64_t recovery_requests(std::span<const int> crashed) override;
  [[nodiscard]] bool wants_recovery() const override {
    return inner_.wants_recovery();
  }
  void begin_run() override { inner_.begin_run(); }
  [[nodiscard]] bool wants_state_fp() const override {
    return inner_.wants_state_fp();
  }
  void on_state_fp(std::uint64_t fp, bool valid) override;
  void on_run_fp(std::uint64_t fp, bool valid) override;

 private:
  subc::SchedulePolicy& inner_;
  subc::Engine engine_;
  std::int64_t entry_;
  std::int64_t built_ = 0;
  std::int64_t ran_ = 0;
  std::int64_t check_ns_ = 0;
  std::int64_t checks_ = 0;
  std::int64_t sched_calls_ = 0;
  std::int64_t sched_ns_ = 0;
  std::int64_t steps_ = 0;
  std::int64_t probes_ = 0;
  std::int64_t probe_cuts_ = 0;
  std::int64_t hash_ns_ = 0;
};

/// Phase markers a world calls. Untraced (null probe) they only count the
/// kernel grants of completed runs.
class Phases {
 public:
  explicit Phases(Probe* probe) : probe_(probe), tally_(Tracer::local()) {}

  void built() noexcept {
    if (probe_ != nullptr) {
      probe_->mark_built();
    }
  }
  /// The world's run returned after `grants` kernel grants.
  void ran(std::int64_t grants) noexcept {
    tally_.grants += grants;
    if (probe_ != nullptr) {
      probe_->mark_ran();
    }
  }
  /// Runs one validation call (the checking layer), timed when traced.
  template <class F>
  void check(F&& f) {
    if (probe_ == nullptr) {
      f();
      return;
    }
    const std::int64_t t0 = now_ns();
    struct Stop {
      Probe* p;
      std::int64_t t0;
      ~Stop() { p->add_check(now_ns() - t0); }
    } stop{probe_, t0};
    f();
  }

 private:
  Probe* probe_;
  Tally& tally_;
};

/// Wraps a world `void(SchedulePolicy&, Phases&)` into an explorer body.
/// Untraced, the world runs directly on the explorer's driver.
template <class World>
subc::ExecutionBody instrument(World world, subc::Engine engine) {
  return [world = std::move(world), engine](subc::ScheduleDriver& driver) {
    if (!Tracer::on()) {
      Phases phases(nullptr);
      world(driver, phases);
      return;
    }
    Probe probe(driver, engine);
    Phases phases(&probe);
    world(probe, phases);
  };
}

/// Explorer-level totals over many `timed_explore` calls.
struct ExploreTally {
  std::int64_t calls = 0;
  std::int64_t wall_ns = 0;
  std::int64_t worker_ns = 0;  ///< Σ workers × call wall
  std::int64_t first_ns = 0;   ///< explore entry → first body (traced)
  std::int64_t tail_ns = 0;    ///< last body exit → return (traced)
  std::int64_t executions = 0;
  std::int64_t reduced_subtrees = 0;
  std::int64_t stateful_cuts = 0;
};

/// One `Explorer::explore` call, timed from outside.
subc::Explorer::Result timed_explore(const subc::ExecutionBody& body,
                                     const subc::Explorer::Options& opts,
                                     ExploreTally& tally);

/// Linear-interpolated quantile of `v` (sorted in place), q in [0, 1].
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

}  // namespace perfbench
