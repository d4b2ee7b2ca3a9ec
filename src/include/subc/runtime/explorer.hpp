// Stateless exhaustive exploration of schedules and object nondeterminism.
//
// The papers' claims are ∀-statements over executions. For small instances
// we check them on *every* execution: the explorer re-runs a user-supplied
// world factory under a `ReplayDriver`, depth-first enumerating the full
// tree of adversary decisions (scheduling ⊎ object nondeterminism). A
// violation (any exception escaping the body) stops the search and is
// reported together with the decision string that produced it, so failures
// replay deterministically.
//
// With `Options::threads > 1` the search runs in parallel: the tree is first
// enumerated down to a frontier depth `d`, producing disjoint subtree
// prefixes in serial-DFS order; a pool of workers then claims subtrees in
// that order and runs the same restart-DFS inside each. Results are
// aggregated canonically — the reported violation is the one the *serial*
// DFS would have found first, and `executions` matches the serial count
// bit-for-bit (see docs/explorer.md) — so results are independent of thread
// timing and core count. Execution bodies must be thread-safe under
// parallel exploration: each invocation builds its own world, and any state
// shared across invocations must be synchronized.
//
// For larger instances `RandomSweep` runs many seeded-random executions —
// the standard randomized analogue — with the same seed-range partitioning
// and deterministic least-seed failure reporting when parallelized.
//
// Every search — exhaustive, random, and the consensus-check helpers built
// on them — executes individual runs through `run_one(body, policy,
// observer)`: one place where a world, a schedule policy (scheduler.hpp,
// policy.hpp) and an event sink (observer.hpp) meet. Found violations can
// be delta-debugged to a locally-minimal decision string with
// `Explorer::shrink` (or automatically via `Options::shrink_violations`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "subc/runtime/scheduler.hpp"

namespace subc {

class TraceObserver;

/// Runs one complete execution of a freshly built world under `driver`.
/// Build everything inside (runtime, objects, processes), run it, then
/// validate — throw `SpecViolation` (or any exception) to flag a violation.
using ExecutionBody = std::function<void(SchedulePolicy& driver)>;

/// The one entry point every search funnels through: runs a single complete
/// execution of `body` under `policy`, with `observer` installed as the
/// thread-default for the duration (so every Runtime the body constructs
/// reports its events there; nullptr = unobserved). Returns the violation
/// message when the body threw, nullopt on a clean execution. `observer`
/// also receives the violation as an `on_violation` event. The explorer's
/// control-flow cuts (`FrontierCut`/`PruneCut`/`SleepCut`) are not
/// violations and propagate to the caller.
std::optional<std::string> run_one(const ExecutionBody& body,
                                   SchedulePolicy& policy,
                                   TraceObserver* observer = nullptr);

/// Diagnostic for an execution cut short by the step-quota watchdog
/// (`Explorer::Options::step_quota`): the schedule consumed more decisions
/// than any terminating run of the world should need — livelock or runaway.
/// The attached trace replays the partial execution up to the cut. Not a
/// violation: the search continues past it (siblings of the cut decision
/// are still explored), it is counted in `Result::stuck_executions`, and the
/// canonically first one is reported in `Result::first_stuck`.
struct StuckExecution {
  std::string message;
  std::vector<ReplayDriver::Decision> trace;
};

/// Partial-order reduction strategy for the exhaustive search.
enum class Reduction : std::uint8_t {
  /// Raw enumeration of every decision string.
  kNone,
  /// Sleep sets over the per-step access footprints (scheduler.hpp): after
  /// the subtree where process p steps at a decision point is explored, p
  /// sleeps at the later siblings and stays asleep below them until some
  /// step *dependent* on p's pending step runs. Sound: a violation is found
  /// iff the unreduced search finds one (docs/explorer.md).
  kSleepSets,
};

class Explorer {
 public:
  /// See ReplayDriver::PruneFn: return true to skip the subtree below the
  /// given partial decision string. Must be thread-safe when threads > 1.
  using PruneFn = ReplayDriver::PruneFn;

  struct Options {
    /// Stop (incomplete) after this many executions. Must be positive
    /// (validated by `explore`, which throws `SimError` otherwise).
    std::int64_t max_executions = 2'000'000;

    /// Partial-order reduction. The default prunes redundant interleavings
    /// of provably commuting steps; use `kNone` when the raw interleaving
    /// count itself is the quantity under test.
    Reduction reduction = Reduction::kSleepSets;

    /// Worker threads for the search. 1 = serial in the calling thread
    /// (the default); 0 = one worker per hardware thread; n > 1 = exactly n
    /// workers. Results are identical at every setting.
    int threads = 1;

    /// Depth (in recorded, i.e. arity>=2, decisions) of the partition
    /// frontier used to generate parallel work items. 0 = auto-tune from
    /// the thread count; negative values are rejected with `SimError`.
    /// Ignored when running serially.
    int frontier_depth = 0;

    /// Optional symmetry/pruning hook, consulted once for every partial
    /// decision string the first time the search reaches it; returning true
    /// skips the whole subtree below it. Pruned subtrees are counted in
    /// `Result::pruned_subtrees` and do not consume `max_executions` budget.
    PruneFn prune;

    /// Optional event sink (observer.hpp) receiving every execution's
    /// kernel events; `run_one` installs it per execution. Observers are
    /// pure sinks — verdicts, counts, and traces are identical with or
    /// without one — and must be thread-safe when threads != 1.
    TraceObserver* observer = nullptr;

    /// When true, a found violation's decision string is delta-debugged to
    /// a locally-minimal reproducer (see `Explorer::shrink`) before being
    /// returned in `Result::violating_trace`. Off by default: shrinking
    /// re-runs the body many times, which matters for expensive worlds.
    bool shrink_violations = false;

    /// Exhaustive crash branching: at every kernel decision point of an
    /// execution in which fewer than `max_crashes` crashes have landed, the
    /// tree additionally forks on "crash enabled process p" for every
    /// candidate victim (in increasing pid order per decision point; see
    /// docs/adversaries.md). Crash decisions are recorded in the replay
    /// prefix, compose with sleep-set reduction (a crash behaves as a write
    /// on the victim alone) and with the parallel frontier machinery.
    /// 0 (the default) disables crash branching; negative values are
    /// rejected with `SimError`.
    int max_crashes = 0;

    /// Exhaustive crash-*recovery* branching: at every kernel decision
    /// point of an execution in which at least one process is crashed and
    /// fewer than `max_recoveries` recoveries have landed, the tree
    /// additionally forks on "restart crashed process p" for every crashed
    /// candidate (in increasing pid order per decision point, mirroring the
    /// crash canonicalization). A recovered process re-enters its body from
    /// the top with fresh volatile state; durable object state persists
    /// (see `Durability`, docs/adversaries.md). Recovery decisions are
    /// recorded in the replay prefix (marker `r`), compose with sleep-set
    /// reduction (a recovery behaves as a write on the reborn process
    /// alone) and with the parallel frontier machinery. 0 (the default)
    /// disables recovery branching; negative values are rejected with
    /// `SimError`. Requires `max_crashes > 0` (or a body that injects
    /// crashes itself) to ever fire.
    int max_recoveries = 0;

    /// Stateful exploration: the kernel maintains an incremental world-state
    /// fingerprint (per-object post-commit state hashes plus per-process
    /// control positions; runtime/hashing.hpp) and the search skips any
    /// subtree whose (fingerprint, sleep-set) pair it has already explored,
    /// counted in `Result::stateful_cuts`. Sound on worlds whose objects
    /// report fingerprints (the built-in zoo does); a step through an
    /// unported object poisons the fingerprint and the execution's remaining
    /// decision points take no cuts (degrades to the plain search, never to
    /// a wrong verdict). Verdicts are identical to the unreduced search —
    /// the canonical violation may differ, but it replays and shrinks.
    /// Incompatible with `prune` (rejected with `SimError`): a pruned
    /// subtree makes "already explored" a lie. See docs/explorer.md.
    bool stateful = false;

    /// Capacity of the stateful visited set (entries; the backing table is
    /// sized for ~70% peak load, 8 bytes per slot). This bounds the table's
    /// memory: its address space is reserved up front, but resident memory
    /// grows only with the pages the search touches (runtime/hashing.hpp),
    /// so a large capacity costs a small search almost nothing. When full,
    /// further states are explored without cutting — still sound, just
    /// fewer cuts. Must be positive.
    std::int64_t stateful_capacity = std::int64_t{1} << 20;

    /// Per-execution step-quota watchdog: an execution consuming more than
    /// this many scheduling decisions is cut and recorded as a
    /// `StuckExecution` diagnostic (consuming one unit of
    /// `max_executions` budget) instead of hanging the search; its
    /// unexplored continuations are truncated, siblings still run. 0 (the
    /// default) disables the watchdog; negative values are rejected with
    /// `SimError`.
    std::int64_t step_quota = 0;

    /// Campaign checkpointing: when non-empty, the search periodically
    /// serializes its progress watermark to this path (durable temp file +
    /// fsync + rename; format in checking/checkpoint.hpp) and writes a final
    /// snapshot on completion. `Explorer::resume(body, path, opts)`
    /// continues an interrupted campaign to the bit-identical final
    /// `Result`. Empty (the default) disables checkpointing. No file but
    /// the snapshot and its transient `<path>.tmp` is written.
    std::string checkpoint_path;

    /// Roughly how many completed executions (serial) or canonical events
    /// (parallel) between periodic snapshots. Must be positive.
    std::int64_t checkpoint_every = 4096;
  };

  struct Result {
    std::int64_t executions = 0;
    /// Subtrees skipped by `Options::prune` (0 when no hook installed).
    std::int64_t pruned_subtrees = 0;
    /// Scheduling options the partial-order reduction proved redundant and
    /// skipped (0 under `Reduction::kNone`). Like `pruned_subtrees`, these
    /// consume no `max_executions` budget and are bit-identical at every
    /// thread count.
    std::int64_t reduced_subtrees = 0;
    /// Subtrees skipped by stateful exploration (`Options::stateful`): the
    /// (world-state, sleep-set) pair at the decision point had already been
    /// visited. Like reduction skips these consume no budget. Deterministic
    /// on serial searches; on parallel ones the *verdict* is still
    /// thread-count-independent but the cut/execution split may vary with
    /// timing (docs/explorer.md).
    std::int64_t stateful_cuts = 0;
    /// Distinct (state, sleep-set) fingerprints recorded in the visited set
    /// (0 unless `Options::stateful`).
    std::int64_t stateful_states = 0;
    /// True when the decision tree was exhausted within the budget.
    bool complete = false;
    /// Set when an execution failed; `trace` replays it.
    std::optional<std::string> violation;
    std::vector<ReplayDriver::Decision> violating_trace;
    /// Executions in which at least one crash landed (0 unless
    /// `Options::max_crashes` > 0 or the body injects crashes itself).
    std::int64_t crashed_executions = 0;
    /// Executions in which at least one recovery landed (0 unless
    /// `Options::max_recoveries` > 0 or the body injects recoveries
    /// itself).
    std::int64_t recovered_executions = 0;
    /// Executions cut by the step-quota watchdog (each also counted in
    /// `executions`). Like every other tally, bit-identical across thread
    /// counts.
    std::int64_t stuck_executions = 0;
    /// The canonically first stuck execution, when any occurred before the
    /// search ended (diagnostic — does not affect `ok()`).
    std::optional<StuckExecution> first_stuck;

    /// Convenience: true iff no violation was found.
    [[nodiscard]] bool ok() const noexcept { return !violation.has_value(); }
  };

  /// Exhaustively enumerates adversary decision strings (DFS), in parallel
  /// when `opts.threads != 1`.
  static Result explore(const ExecutionBody& body, Options opts);
  static Result explore(const ExecutionBody& body) {
    return explore(body, Options{});
  }

  /// Continues an interrupted campaign from a snapshot previously written
  /// under `opts.checkpoint_path` (checking/checkpoint.hpp). The snapshot's
  /// option echo must match `opts` (`max_executions`, `max_crashes`,
  /// `max_recoveries`, `step_quota`, `reduction`, `stateful` — thread count
  /// and frontier depth may differ, results are independent of both);
  /// mismatches throw `SimError`. The final `Result` is bit-identical to the uninterrupted
  /// run's: the saved watermark tallies are merged with a fresh search over
  /// the remaining subtrees. Exception: under `Options::stateful` the
  /// visited set is not serialized, so a resumed search restarts it cold —
  /// same verdict, but `executions`/`stateful_cuts` may differ from the
  /// uninterrupted run's (docs/explorer.md). A snapshot of a finished
  /// search returns its saved `Result` without re-running anything.
  static Result resume(const ExecutionBody& body,
                       const std::string& snapshot_path, Options opts);

  /// Re-runs a single execution following `trace` (from a prior violation).
  /// Traces from serial and parallel runs replay identically.
  static void replay(const ExecutionBody& body,
                     std::vector<ReplayDriver::Decision> trace);

  /// Delta-debugs a violating decision string to a *locally-minimal*
  /// reproducer: no single prefix truncation and no single lowering of one
  /// decision (with the suffix dropped) yields a lexicographically smaller
  /// decision string that still violates. Candidates are replayed without
  /// reduction and zero-extended canonically by the ReplayDriver, so the
  /// returned trace replays deterministically (`replay` throws on it). If
  /// `trace` does not reproduce a violation it is returned unchanged.
  static std::vector<ReplayDriver::Decision> shrink(
      const ExecutionBody& body, std::vector<ReplayDriver::Decision> trace);

  /// Resolves an `Options::threads` value: 0 becomes the hardware thread
  /// count, everything else is returned as-is (minimum 1).
  static int resolve_threads(int threads) noexcept;
};

/// Randomized sweep: `runs` executions with seeds `first_seed .. first_seed
/// + runs - 1`. Returns the first failing seed, or nullopt when all passed.
/// With `threads != 1` the seed range is partitioned across workers; the
/// reported failure is always the *least* failing seed index that the serial
/// sweep would have hit first, and `Result::runs` matches the serial count.
struct RandomSweep {
  struct Result {
    std::int64_t runs = 0;
    std::optional<std::uint64_t> failing_seed;
    std::optional<std::string> violation;

    [[nodiscard]] bool ok() const noexcept { return !failing_seed.has_value(); }
  };

  /// `observer`, when given, sees every execution's events (`run_one`
  /// semantics); it must be thread-safe when threads != 1.
  static Result run(const ExecutionBody& body, std::int64_t runs,
                    std::uint64_t first_seed = 1, int threads = 1,
                    TraceObserver* observer = nullptr);
};

}  // namespace subc
