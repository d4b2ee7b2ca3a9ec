// Schedule policies: the adversary.
//
// A `SchedulePolicy` makes three kinds of adversarial decisions during a
// simulated execution:
//  * scheduling — which enabled process takes the next atomic step,
//  * object nondeterminism — the choice a nondeterministic base object makes
//    inside a step (e.g. which element of its value set an (n,k)-set-
//    consensus object returns), and
//  * fault injection — which processes crash, and when (`crash_requests`;
//    most policies have no fault model and inherit the no-crash default —
//    the crash-adversary decorator in policy.hpp composes one over any
//    policy).
// All three are adversarial in the papers' model, so one policy object
// supplies them all. The exhaustive explorer (explorer.hpp) enumerates every
// decision string; this header provides the round-robin, seeded-random,
// scripted and replay policies, and policy.hpp adds the PCT randomized-
// priority and crash adversaries. Policies are pure deciders: what gets
// *recorded* about a run is the separate TraceObserver layer (observer.hpp),
// and `run_one` (explorer.hpp) is the entry point that wires a world, a
// policy and an observer chain together.
//
// Scheduling decisions carry *access footprints*: alongside the enabled pid
// list, the runtime passes the footprint of each enabled process's pending
// step ({object, kind}, announced at its `sched_point`). Footprints are pure
// metadata — they never change what a step does, only let the explorer's
// partial-order reduction recognise commuting steps (docs/explorer.md).
#pragma once

#include <cstdint>
#include <functional>
#include <random>
#include <span>
#include <vector>

#include "subc/runtime/hashing.hpp"
#include "subc/runtime/value.hpp"

namespace subc {

/// How a pending atomic step accesses its shared object. `kChoose` marks
/// steps that additionally resolve object nondeterminism via
/// `Context::choose` (set-consensus propose, set-election invoke); for
/// independence they behave like `kRmw`.
enum class AccessKind : std::uint8_t { kUnknown = 0, kRead, kWrite, kRmw, kChoose };

/// The access footprint of one pending atomic step: which shared object it
/// touches and how. `object == 0` means "unknown" — a step with no declared
/// footprint, conservatively treated as dependent with everything.
struct Access {
  std::uint32_t object = 0;
  AccessKind kind = AccessKind::kUnknown;
};

/// Mazurkiewicz independence of two steps, judged by footprint: steps on
/// distinct objects commute, and two reads of the same object commute.
/// Unknown footprints are dependent with everything (sound default).
[[nodiscard]] constexpr bool independent(Access a, Access b) noexcept {
  if (a.object == 0 || b.object == 0) {
    return false;
  }
  if (a.object != b.object) {
    return true;
  }
  return a.kind == AccessKind::kRead && b.kind == AccessKind::kRead;
}

/// Supplies adversarial decisions. `pick` selects an index into the enabled
/// set (never empty); `choose` resolves object nondeterminism with an
/// arbitrary arity; `crash_requests` injects failures.
class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;

  /// Returns an index into `enabled` (the pids currently able to step, in
  /// increasing pid order). `footprints`, when non-empty, is index-aligned
  /// with `enabled` and holds each pending step's access footprint; policies
  /// that do not inspect footprints simply ignore it.
  virtual std::size_t pick(std::span<const int> enabled,
                           std::span<const Access> footprints = {}) = 0;

  /// Returns a value in [0, arity). `arity >= 1`.
  virtual std::uint32_t choose(std::uint32_t arity) = 0;

  /// Fault injection: consulted by the kernel once per decision point,
  /// before `pick`, with the currently enabled pids. Returns a bitmask of
  /// pids to crash at this point (bit p = pid p; pids >= 64 cannot be
  /// targeted through this hook). Crashed pids are retired before the pick;
  /// crashing every enabled process simply ends the run. The default
  /// injects nothing — `CrashAdversary` (policy.hpp) composes a fault model
  /// over any policy.
  [[nodiscard]] virtual std::uint64_t crash_requests(
      std::span<const int> /*enabled*/) {
    return 0;
  }

  /// Crash-recovery: consulted by the kernel once per decision point,
  /// before `crash_requests`, with the currently *crashed* pids (increasing
  /// pid order) — but only when the policy declared the capability via
  /// `wants_recovery()` and at least one process is crashed. Returns a
  /// bitmask of pids to restart at this point (bit p = pid p; pids >= 64
  /// cannot be targeted). A restarted process re-enters its body from the
  /// top with fresh volatile state; durable object state persists
  /// (runtime.hpp `Durability`). The default injects nothing.
  [[nodiscard]] virtual std::uint64_t recovery_requests(
      std::span<const int> /*crashed*/) {
    return 0;
  }

  /// Recovery capability: when false (the default) the kernel never tracks
  /// crashed-pid sets or consults `recovery_requests`, so crash-stop worlds
  /// pay nothing and explore bit-identically to the pre-recovery kernel.
  [[nodiscard]] virtual bool wants_recovery() const { return false; }

  /// Called by `Runtime::run` before the first step of a world. Policies
  /// that keep per-world state (e.g. the replay policy's sleep sets) reset
  /// it here so one policy can soundly span several runtimes in one
  /// execution.
  virtual void begin_run() {}

  /// Stateful exploration capability: when true, the kernel accumulates an
  /// incremental world-state fingerprint and reports it through
  /// `on_state_fp` / `on_run_fp`. Off by default so non-stateful runs pay
  /// only one branch per kernel event for the whole machinery.
  [[nodiscard]] virtual bool wants_state_fp() const { return false; }

  /// Reported by the kernel at every scheduling decision point (before the
  /// crash branch point, so a cut covers the crash branching too), with the
  /// current world fingerprint. `valid` is false once any granted step made
  /// no fingerprint report (an unported object stepped): the execution's
  /// fingerprints are then meaningless and must drive no cuts.
  virtual void on_state_fp(std::uint64_t /*fp*/, bool /*valid*/) {}

  /// Reported by the kernel when a `Runtime::run` finishes, with the final
  /// world fingerprint. Lets a policy spanning several runtimes in one
  /// execution chain completed-runtime state into later probes.
  virtual void on_run_fp(std::uint64_t /*fp*/, bool /*valid*/) {}
};

/// Former name of `SchedulePolicy`. Nothing in the library, tests, benches
/// or examples uses it; it stays only because the benchmark harness
/// (perfbench/src/trace.hpp) still spells it. Delete it with that use.
using ScheduleDriver = SchedulePolicy;

/// Cycles through processes in pid order; object choices always take
/// option 0. Deterministic; useful for smoke tests and benchmarks.
class RoundRobinDriver final : public SchedulePolicy {
 public:
  std::size_t pick(std::span<const int> enabled,
                   std::span<const Access> footprints = {}) override;
  std::uint32_t choose(std::uint32_t arity) override;

 private:
  int last_pid_ = -1;
};

/// Uniformly random scheduling and object choices from a seeded PRNG.
/// Identical seeds replay identical executions (given a deterministic
/// world), so failures are reproducible from the seed alone.
class RandomDriver final : public SchedulePolicy {
 public:
  explicit RandomDriver(std::uint64_t seed) : rng_(seed) {}

  std::size_t pick(std::span<const int> enabled,
                   std::span<const Access> footprints = {}) override;
  std::uint32_t choose(std::uint32_t arity) override;

 private:
  std::mt19937_64 rng_;
};

/// Follows a scripted pid sequence; when the scripted pid is not enabled (or
/// the script is exhausted) falls back to the lowest enabled pid. Object
/// choices take option 0. Used to drive the hand-constructed executions in
/// the papers' proofs (e.g. the w1/w2/w3 scenario before Algorithm 5).
class ScriptedDriver final : public SchedulePolicy {
 public:
  explicit ScriptedDriver(std::vector<int> pids) : pids_(std::move(pids)) {}

  std::size_t pick(std::span<const int> enabled,
                   std::span<const Access> footprints = {}) override;
  std::uint32_t choose(std::uint32_t arity) override;

 private:
  std::vector<int> pids_;
  std::size_t pos_ = 0;
};

/// Thrown by `ReplayDriver` when a fresh decision would exceed the
/// configured decision limit (`set_decision_limit`). Used by the parallel
/// explorer's frontier enumeration to cut executions at the partition depth.
/// Deliberately not derived from `std::exception` (like `FiberKilled`) so
/// that execution bodies catching `std::exception` cannot swallow it.
struct FrontierCut {};

/// Thrown by `ReplayDriver` when the prune hook rejects a freshly recorded
/// decision: the whole subtree below the current partial decision string is
/// abandoned. Not derived from `std::exception` for the same reason as
/// `FrontierCut`.
struct PruneCut {};

/// Thrown by `ReplayDriver` when sleep-set partial-order reduction proves
/// every continuation of the current partial execution equivalent to an
/// already-explored one (every enabled process is asleep): the subtree is
/// abandoned as redundant. Not derived from `std::exception` for the same
/// reason as `FrontierCut`.
struct SleepCut {};

/// Thrown by `ReplayDriver` when the per-execution step-quota watchdog
/// (`set_step_quota`) trips: the execution has consumed more scheduling
/// decisions than any terminating schedule of the world should need, i.e.
/// it is livelocked or runaway. The explorer converts it into a structured
/// `StuckExecution` diagnostic instead of hanging. Not derived from
/// `std::exception` for the same reason as `FrontierCut`.
struct StuckCut {};

/// Thrown by `ReplayDriver` in stateful mode when the kernel reports a
/// world fingerprint whose (state, sleep-set) pair is already in the
/// visited set: the subtree below the current partial execution reconverges
/// with an already-explored one and is abandoned. Like `SleepCut` it proves
/// redundancy rather than ending an execution, so the explorer counts it in
/// `Result::stateful_cuts` and charges no execution budget. Not derived
/// from `std::exception` for the same reason as `FrontierCut`.
struct StatefulCut {};

/// Replays a recorded decision prefix and extends it with first options;
/// records the arity of every decision point. This is the explorer's
/// workhorse (stateless model checking): see explorer.hpp.
///
/// Forced (arity-1) decisions are elided: they have exactly one outcome, so
/// recording them would only lengthen traces and slow backtracking. Traces
/// therefore contain only decisions with `arity >= 2`, and prefixes passed in
/// must use the same convention (any trace recorded by a ReplayDriver does).
///
/// With `set_reduction(true)` the driver additionally runs sleep-set
/// partial-order reduction over the access footprints the runtime supplies
/// to `pick`: scheduling options whose process is asleep (its pending step
/// provably commutes with an already-explored sibling branch) are skipped,
/// and partial executions with every enabled process asleep throw `SleepCut`.
/// The skip metadata (`Decision::enabled`, `Decision::sleep`) is recorded in
/// the trace so the explorer's backtracking applies identical skips.
class ReplayDriver final : public SchedulePolicy {
 public:
  struct Decision {
    std::uint32_t chosen = 0;
    std::uint32_t arity = 1;
    /// Scheduling decisions under reduction: bitmask of the enabled pids
    /// (option i = i-th set bit) and the sleep set inherited from the path
    /// above. Both 0 for object choices, for scheduling decisions recorded
    /// without reduction, and for any pid >= 64 (reduction disabled there).
    std::uint64_t enabled = 0;
    std::uint64_t sleep = 0;
    /// True for crash decisions (`crash_requests` branch points): option 0
    /// is "no crash", option i >= 1 crashes the i-th candidate victim. The
    /// flag travels with the trace so replay re-derives the fault without
    /// knowing the recording run's crash budget.
    bool crash = false;
    /// True for recovery decisions (`recovery_requests` branch points):
    /// option 0 is "no restart", option i >= 1 restarts the i-th candidate
    /// (crashed pids in increasing order). Travels with the trace exactly
    /// like `crash`, so replay re-derives the restart without knowing the
    /// recording run's recovery budget.
    bool recover = false;
  };

  /// Prune hook: given the partial decision string ending at a candidate
  /// decision, return true to skip the entire subtree below it. Must be
  /// thread-safe: the parallel explorer invokes it concurrently from worker
  /// threads.
  using PruneFn = std::function<bool(std::span<const Decision>)>;

  ReplayDriver() = default;
  explicit ReplayDriver(std::vector<Decision> prefix)
      : trace_(std::move(prefix)) {}

  std::size_t pick(std::span<const int> enabled,
                   std::span<const Access> footprints = {}) override;
  std::uint32_t choose(std::uint32_t arity) override;
  std::uint64_t crash_requests(std::span<const int> enabled) override;
  std::uint64_t recovery_requests(std::span<const int> crashed) override;
  void begin_run() override {
    sleep_ = 0;
    crashes_run_ = 0;
    crash_floor_ = 0;
    recoveries_run_ = 0;
    recovery_floor_ = 0;
  }
  [[nodiscard]] bool wants_state_fp() const override {
    return visited_ != nullptr;
  }
  /// Recovery is live when fresh restarts may be injected (budget set) *or*
  /// the replayed prefix contains a recorded restart — a trace with
  /// recoveries must replay bit-identically even under a zero budget (the
  /// shrinker's probes rely on this).
  [[nodiscard]] bool wants_recovery() const override {
    if (max_recoveries_ > 0) {
      return true;
    }
    for (const Decision& d : trace_) {
      if (d.recover) {
        return true;
      }
    }
    return false;
  }
  void on_state_fp(std::uint64_t fp, bool valid) override;
  void on_run_fp(std::uint64_t fp, bool valid) override;

  /// Full decision string of the execution driven so far.
  [[nodiscard]] const std::vector<Decision>& trace() const noexcept {
    return trace_;
  }

  /// Moves the recorded decision string out; the driver is spent afterwards.
  /// Lets the explorer recycle the trace as the next iteration's prefix
  /// without copying (millions of executions, one vector).
  [[nodiscard]] std::vector<Decision> take_trace() noexcept {
    return std::move(trace_);
  }

  /// Fresh decisions that would grow the trace beyond `limit` entries throw
  /// `FrontierCut` instead of being recorded (replayed prefix entries are
  /// unaffected). Default: no limit.
  void set_decision_limit(std::size_t limit) noexcept { limit_ = limit; }

  /// Consults `prune` on every freshly recorded decision; a true return
  /// throws `PruneCut`. The pointee must outlive the driver. Pass nullptr
  /// (the default) to disable.
  void set_prune(const PruneFn* prune) noexcept { prune_ = prune; }

  /// Enables sleep-set partial-order reduction for fresh scheduling
  /// decisions. Off by default (raw enumeration).
  void set_reduction(bool on) noexcept { reduce_ = on; }

  /// Makes crash failures a branch point: at every kernel decision point
  /// where fewer than `f` crashes have landed in the current run, the tree
  /// forks on "no crash" versus "crash candidate pid p" for every enabled
  /// pid < 64. 0 (the default) disables fresh crash decisions; recorded
  /// crash decisions in a replayed prefix are honored either way.
  void set_max_crashes(int f) noexcept { max_crashes_ = f; }

  /// Makes crash-recovery a branch point: at every kernel decision point
  /// where at least one process is crashed and fewer than `r` restarts have
  /// landed in the current run, the tree forks on "no restart" versus
  /// "restart crashed pid p" for every crashed pid < 64. 0 (the default)
  /// disables fresh recovery decisions; recorded recovery decisions in a
  /// replayed prefix are honored either way.
  void set_max_recoveries(int r) noexcept { max_recoveries_ = r; }

  /// Per-execution watchdog: after `quota` scheduling decisions (`pick`
  /// calls, replayed prefix included) the driver throws `StuckCut` — a
  /// livelocked or runaway schedule becomes a bounded, diagnosable event
  /// instead of a hang. 0 (the default) disables the quota.
  void set_step_quota(std::int64_t quota) noexcept { step_quota_ = quota; }

  /// Enables stateful exploration: at every *fresh* decision point (the
  /// replayed prefix never probes — restart-DFS revisits its own prefix
  /// states once per sibling, and cutting those would cut the search's own
  /// backbone) the kernel-reported world fingerprint is keyed with the
  /// current sleep set and checked against `set`; a hit throws
  /// `StatefulCut`. The pointee must outlive the driver and may be shared
  /// across threads. Pass nullptr (the default) to disable.
  void set_stateful(detail::VisitedSet* set) noexcept { visited_ = set; }

  /// Scheduling options skipped by the reduction so far (each is a subtree
  /// the search proved redundant and never entered).
  [[nodiscard]] std::int64_t reduced() const noexcept { return reduced_; }

  /// Crashes landed over the driver's lifetime (all runs of the execution).
  [[nodiscard]] std::int64_t crashes() const noexcept { return crashes_total_; }

  /// Restarts landed over the driver's lifetime (all runs of the execution).
  [[nodiscard]] std::int64_t recoveries() const noexcept {
    return recoveries_total_;
  }

 private:
  std::uint32_t next_choice(std::uint32_t arity);

  std::vector<Decision> trace_;
  std::size_t pos_ = 0;
  std::size_t limit_ = static_cast<std::size_t>(-1);
  const PruneFn* prune_ = nullptr;
  bool reduce_ = false;
  std::uint64_t sleep_ = 0;
  std::int64_t reduced_ = 0;
  int max_crashes_ = 0;
  int crashes_run_ = 0;         ///< crashes landed in the current run
  std::int64_t crashes_total_ = 0;
  /// Successive crash decisions at one kernel decision point enumerate
  /// victims in increasing pid order (crashes at the same point commute, so
  /// unordered subsets would be explored twice). The floor is the pid after
  /// the last victim; any granted step resets it.
  int crash_floor_ = 0;
  int max_recoveries_ = 0;
  int recoveries_run_ = 0;  ///< restarts landed in the current run
  std::int64_t recoveries_total_ = 0;
  /// As crash_floor_, for recovery decisions: restarts at one decision
  /// point enumerate candidates in increasing pid order.
  int recovery_floor_ = 0;
  std::int64_t step_quota_ = 0;
  std::int64_t steps_ = 0;
  detail::VisitedSet* visited_ = nullptr;
  /// Chained final fingerprints of completed runtimes in this execution,
  /// so probes in a later runtime are keyed on the whole execution's state.
  std::uint64_t base_fp_ = 0;
  bool base_fp_valid_ = true;
};

/// Renders a decision string for diagnostics ("2/3 0/2 1/4 ...").
std::string format_trace(std::span<const ReplayDriver::Decision> trace);

}  // namespace subc
