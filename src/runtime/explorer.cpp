#include "subc/runtime/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "subc/checking/checkpoint.hpp"
#include "subc/checking/violation_log.hpp"
#include "subc/runtime/bounded_queue.hpp"
#include "subc/runtime/hashing.hpp"
#include "subc/runtime/observer.hpp"
#include "subc/runtime/value.hpp"

namespace subc {
namespace {

using Decision = ReplayDriver::Decision;

// Executions claimed from the shared budget per batch. Participants grab a
// block, consume from it locally (no shared traffic per execution), and
// return what they did not use — the shared state is touched
// O(executions / kBudgetBatch) times instead of once per execution.
constexpr std::int64_t kBudgetBatch = 64;

// State shared by every participant of one exploration (the frontier
// enumerator and all subtree workers).
//
// Budget protocol (see BudgetScope): `granted` counts budget handed out in
// batches and not yet returned; completed executions consume from a
// participant's local batch, probes cut short (frontier cut, prune, sleep
// skip) consume nothing. A participant that is denied budget *parks* (waits
// on `cv`) instead of abandoning its subtree: as long as some other
// participant still holds an unconsumed grant, a refund may arrive and the
// parked work continues. Only when the pool is empty AND nobody holds a
// grant is the search finally exhausted (`exhausted_final`) — this is what
// makes a completed exploration report exactly `min(tree size,
// max_executions)` executions: no unit ever gives up while budget it could
// have used sits (or will be refunded) elsewhere.
struct SearchState {
  std::int64_t max_executions = 0;
  /// Stateful exploration's visited set (null unless `Options::stateful`),
  /// shared by every participant: a cut taken because *any* worker already
  /// explored the (state, sleep-set) pair is sound — by induction on total
  /// step count (each recorded decision strictly extends the per-process
  /// step spine, so state reachability is a DAG), the continuations below
  /// an equal pair are behaviour-identical.
  std::unique_ptr<detail::VisitedSet> visited;
  ViolationLog log;
  // Stuck-execution diagnostics, aggregated like violations (least canonical
  // index wins) but on a separate log: a stuck execution never cancels work
  // — the search continues past it.
  ViolationLog stuck_log;

  std::mutex mu;
  std::condition_variable cv;
  std::int64_t granted = 0;  // claimed minus refunded (never > max)
  int holders = 0;           // participants holding an unreturned grant
  bool exhausted_final = false;
};

// One participant's view of the shared budget: a locally held block of
// executions, claimed batch-wise and consumed without synchronization.
class BudgetScope {
 public:
  explicit BudgetScope(SearchState& s) : s_(s) {}
  ~BudgetScope() { release(); }

  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

  /// Ensures at least one execution's worth of budget is held, parking
  /// until budget is granted or the search is finally exhausted (returns
  /// false — the caller abandons with its unit marked unfinished).
  bool ensure() {
    if (held_ > 0) {
      return true;
    }
    std::unique_lock<std::mutex> lk(s_.mu);
    drop_locked();
    for (;;) {
      const std::int64_t avail = s_.max_executions - s_.granted;
      if (avail > 0) {
        held_ = std::min(kBudgetBatch, avail);
        s_.granted += held_;
        ++s_.holders;
        holder_ = true;
        return true;
      }
      if (s_.exhausted_final) {
        return false;
      }
      if (s_.holders == 0) {
        // Pool empty and nobody left to refund: the denier is also the
        // last drainer, so exhaustion is final. Wake every parked peer.
        s_.exhausted_final = true;
        s_.cv.notify_all();
        return false;
      }
      s_.cv.wait(lk);
    }
  }

  /// Consumes one held execution (call after each completed run).
  void consume() noexcept { --held_; }

  /// Returns the unconsumed remainder to the pool.
  void release() {
    if (!holder_) {
      return;
    }
    const std::lock_guard<std::mutex> lk(s_.mu);
    drop_locked();
  }

 private:
  // Refund `held_` and drop holder status; wake peers that can now claim,
  // or finalize exhaustion when this was the last holder of an empty pool.
  void drop_locked() {
    if (!holder_) {
      return;
    }
    s_.granted -= held_;
    held_ = 0;
    --s_.holders;
    holder_ = false;
    if (s_.granted < s_.max_executions) {
      s_.cv.notify_all();
    } else if (s_.holders == 0 && !s_.exhausted_final) {
      s_.exhausted_final = true;
      s_.cv.notify_all();
    }
  }

  SearchState& s_;
  std::int64_t held_ = 0;
  bool holder_ = false;
};

// Tallies and findings of one subtree: a frontier work unit, or — for the
// serial search and the parallel aggregate — the whole remaining tree.
struct SubtreeStats {
  ExplorerTally tally;
  std::optional<std::string> violation;
  std::vector<Decision> trace;
  /// First (in DFS order, i.e. canonically least within the subtree) stuck
  /// execution; DFS order also means it precedes the subtree's own
  /// violation, if any.
  std::optional<StuckExecution> first_stuck;
  /// True when the subtree was fully explored or stopped at its own (first)
  /// violation — false only on cancellation or budget exhaustion.
  bool finished = false;
};

// What one run of the restart-DFS turned out to be: its contribution to the
// canonical tallies (the execution or cut itself, plus the reduction skips
// the driver made on the way down) and what it found.
struct Outcome {
  ExplorerTally delta;
  bool unit = false;  ///< cut at the frontier depth: a work unit's root
  std::optional<std::string> violation;
  std::optional<std::string> stuck;  ///< step-quota diagnostic
};

// Runs `body` once under `driver` and sorts the result into an Outcome.
// Completed executions — violating and stuck ones included — consume one
// unit of budget; cuts consume none.
Outcome run_and_classify(const ExecutionBody& body, ReplayDriver& driver,
                         const Explorer::Options& opts, BudgetScope& budget) {
  Outcome out;
  bool executed = true;
  try {
    out.violation = run_one(body, driver, opts.observer);
  } catch (const FrontierCut&) {
    out.unit = true;  // the unit's worker re-runs this subtree and pays
    executed = false;
  } catch (const PruneCut&) {
    out.delta.pruned = 1;
    executed = false;
  } catch (const SleepCut&) {
    executed = false;  // redundant subtree, carried in `reduced` alone
  } catch (const StatefulCut&) {
    // The (state, sleep-set) pair at this decision point was already
    // explored: the subtree below is behaviour-identical to one already
    // searched.
    out.delta.stateful_cuts = 1;
    executed = false;
    if (opts.observer != nullptr) {
      opts.observer->on_stateful_cut(1);
    }
  } catch (const StuckCut&) {
    // Step quota tripped: the run did real work, so it counts as a (stuck)
    // execution; its unexplored continuations are truncated — advance()
    // moves on to the cut's siblings.
    out.delta.stuck = 1;
    out.stuck = "stuck execution: step quota (" +
                std::to_string(opts.step_quota) + ") exceeded";
    if (opts.observer != nullptr) {
      opts.observer->on_stuck(*out.stuck);
    }
  }
  if (executed) {
    budget.consume();
    out.delta.executions = 1;
    out.delta.crashed = driver.crashes() > 0 ? 1 : 0;
    out.delta.recovered = driver.recoveries() > 0 ? 1 : 0;
  }
  out.delta.reduced = driver.reduced();
  return out;
}

// True when sleep-set metadata recorded at `d` says option `chosen` is
// redundant: its process was asleep when the decision point was first
// reached (`Decision::sleep` stores the inherited sleep set; earlier sibling
// options all have distinct pids, so membership there never changes the
// verdict). `d.enabled == 0` means no metadata — never skip. Crash decisions
// record no metadata (skipping a crash option would be unsound: the victim's
// crash is dependent with the victim's own pending step), so they are never
// skipped here.
bool option_asleep(const Decision& d, std::uint32_t chosen) {
  if (d.enabled == 0) {
    return false;
  }
  // Pid of the chosen option = position of its (chosen-th) set bit.
  std::uint64_t rest = d.enabled;
  for (std::uint32_t c = 0; c < chosen; ++c) {
    rest &= rest - 1;  // clear lowest set bit
  }
  const std::uint64_t bit = rest & ~(rest - 1);  // lowest remaining
  return (d.sleep & bit) != 0;
}

// Advances `trace` to the next DFS prefix inside the subtree whose first
// `floor` decisions are fixed: bump the deepest decision that still has
// unexplored options, dropping everything after it. Options asleep under
// the recorded reduction metadata are skipped (counted in `reduced`), and
// `prune` is consulted on every surviving candidate prefix (its subtree is
// skipped and counted when rejected). Returns false when the subtree is
// exhausted.
bool advance(std::vector<Decision>& trace, std::size_t floor,
             const Explorer::PruneFn& prune, std::int64_t& pruned,
             std::int64_t& reduced) {
  std::size_t i = trace.size();
  while (i > floor) {
    Decision& d = trace[i - 1];
    if (d.chosen + 1 < d.arity) {
      ++d.chosen;
      if (option_asleep(d, d.chosen)) {
        ++reduced;
        continue;  // same position, next option
      }
      if (prune && prune(std::span<const Decision>(trace.data(), i))) {
        ++pruned;
        continue;  // same position, next option
      }
      trace.resize(i);
      return true;
    }
    --i;
  }
  return false;
}

constexpr std::size_t kNoDecisionLimit = ~std::size_t{0};

// The restart-DFS shared by the serial search, every subtree worker and the
// frontier producer: run the next prefix, classify the outcome, hand it to
// `sink`, and advance to the next prefix inside the subtree whose first
// `floor` decisions are fixed. The producer passes its frontier depth as
// `decision_limit`, so runs reaching it are cut into work units.
//
// Stops at the subtree's first violation — the lexicographically least
// one, since DFS visits decision strings in lexicographic order — on budget
// exhaustion, or when a canonically earlier work unit has already reported
// a violation (nothing here can win then). Returns true when the subtree
// was exhausted or stopped at its own violation.
//
// The sink provides `index()`, the canonical index of the next outcome
// (compared against reported violations for cancellation); `take(outcome,
// trace)`, called for every run; `skipped(tally)`, called with the subtrees
// pruned or reduction-skipped while advancing past a run; and
// `next(prefix)`, called with each next prefix (the checkpoint hook).
template <class Sink>
bool restart_dfs(const ExecutionBody& body, std::vector<Decision> prefix,
                 std::size_t floor, std::size_t decision_limit,
                 const Explorer::Options& opts, SearchState& state,
                 BudgetScope& budget, Sink& sink) {
  const Explorer::PruneFn& prune = opts.prune;
  for (;;) {
    if (state.log.best_index() < sink.index()) {
      return false;  // cancelled: a canonically earlier violation won
    }
    if (!budget.ensure()) {
      return false;  // budget finally exhausted
    }
    ReplayDriver driver(std::move(prefix));
    driver.set_decision_limit(decision_limit);
    driver.set_prune(prune ? &prune : nullptr);
    driver.set_reduction(opts.reduction == Reduction::kSleepSets);
    driver.set_max_crashes(opts.max_crashes);
    driver.set_max_recoveries(opts.max_recoveries);
    driver.set_step_quota(opts.step_quota);
    driver.set_stateful(state.visited.get());
    Outcome out = run_and_classify(body, driver, opts, budget);
    std::vector<Decision> trace = driver.take_trace();
    const std::int64_t reduced = out.delta.reduced;
    const bool violated = out.violation.has_value();
    sink.take(std::move(out), trace);
    if (violated) {
      return true;
    }
    ExplorerTally skipped;
    const bool more =
        advance(trace, floor, prune, skipped.pruned, skipped.reduced);
    sink.skipped(skipped);
    if (opts.observer != nullptr && reduced + skipped.reduced > 0) {
      opts.observer->on_reduced(reduced + skipped.reduced);
    }
    if (!more) {
      return true;
    }
    sink.next(trace);
    prefix = std::move(trace);
  }
}

// The snapshot every checkpoint of one search starts from: the option echo
// plus the watermark a resumed search inherited (zero tallies on a fresh
// explore). Periodic snapshots add the current progress on top.
ExplorerSnapshot snapshot_proto(const Explorer::Options& opts,
                                const ExplorerSnapshot* base) {
  ExplorerSnapshot s;
  if (base != nullptr) {
    static_cast<ExplorerTally&>(s) = *base;
    s.stuck_message = base->stuck_message;
    s.stuck_trace = base->stuck_trace;
  }
  s.max_executions = opts.max_executions;
  s.max_crashes = opts.max_crashes;
  s.max_recoveries = opts.max_recoveries;
  s.step_quota = opts.step_quota;
  s.reduction = opts.reduction == Reduction::kSleepSets;
  s.stateful = opts.stateful;
  return s;
}

// `base` with a search's progress on top. The base's stuck winner, when
// present (a resumed watermark's), canonically precedes anything found
// after it.
ExplorerSnapshot on_top(ExplorerSnapshot base, const ExplorerTally& progress,
                        const std::optional<StuckExecution>& stuck) {
  base += progress;
  if (!base.stuck_message && stuck) {
    base.stuck_message = stuck->message;
    base.stuck_trace = stuck->trace;
  }
  return base;
}

// Periodic snapshots of one search, serial or parallel: once at least
// `checkpoint_every` units of progress (completed executions serially,
// canonical events in parallel) have passed since the last one, the
// watermark tallies and restart prefix are written on top of the proto.
class Checkpointer {
 public:
  Checkpointer(const Explorer::Options& opts, const ExplorerSnapshot& proto)
      : path_(opts.checkpoint_path),
        every_(opts.checkpoint_every),
        proto_(proto) {}

  bool due(std::int64_t progress) {
    if (path_.empty() || progress - last_ < every_) {
      return false;
    }
    last_ = progress;
    return true;
  }

  void write(const ExplorerTally& watermark,
             const std::optional<StuckExecution>& stuck,
             const std::vector<Decision>& next) const {
    ExplorerSnapshot s = on_top(proto_, watermark, stuck);
    s.prefix = next;
    try {
      save_snapshot(path_, s);
    } catch (const SimError&) {
      // A periodic snapshot that still fails after save_snapshot's own
      // retries must not kill the campaign: the search continues and the
      // next period (or the final snapshot) tries again. The previous
      // snapshot stays intact (it is only ever replaced by rename), so
      // resume keeps working — it just redoes more of the tree.
    }
  }

 private:
  const std::string& path_;
  std::int64_t every_;
  const ExplorerSnapshot& proto_;
  std::int64_t last_ = 0;  ///< progress at the previous snapshot
};

// restart_dfs's sink inside one subtree: outcomes go straight into its
// stats. The serial top-level search also checkpoints (tallies, next
// prefix) through `cp`; parallel workers pass none.
struct SubtreeSink {
  SubtreeStats& stats;
  std::uint64_t my_index;
  Checkpointer* cp;

  [[nodiscard]] std::uint64_t index() const noexcept { return my_index; }

  void take(Outcome out, const std::vector<Decision>& trace) {
    stats.tally += out.delta;
    if (out.stuck && !stats.first_stuck) {
      stats.first_stuck = StuckExecution{std::move(*out.stuck), trace};
    }
    if (out.violation) {
      stats.violation = std::move(out.violation);
      stats.trace = trace;
    }
  }

  void skipped(const ExplorerTally& skips) { stats.tally += skips; }

  void next(const std::vector<Decision>& prefix) {
    if (cp != nullptr && cp->due(stats.tally.executions)) {
      cp->write(stats.tally, stats.first_stuck, prefix);
    }
  }
};

SubtreeStats explore_subtree(const ExecutionBody& body,
                             std::vector<Decision> prefix, std::size_t floor,
                             const Explorer::Options& opts, SearchState& state,
                             std::uint64_t my_index,
                             Checkpointer* cp = nullptr) {
  SubtreeStats stats;
  SubtreeSink sink{stats, my_index, cp};
  BudgetScope budget(state);
  stats.finished = restart_dfs(body, std::move(prefix), floor,
                               kNoDecisionLimit, opts, state, budget, sink);
  return stats;
}

// One frontier work unit: the depth-d prefix whose subtree a worker
// explores (also read by checkpoints naming the watermark unit's restart
// point), its canonical event index, the stats filled by whichever thread
// explores it, and a done flag publishing the stats (store-release after
// the stats are written, load-acquire by the checkpoint scan).
struct UnitRecord {
  std::uint64_t index = 0;
  std::vector<Decision> prefix;
  SubtreeStats stats;
  std::atomic<bool> done{false};
};

// One entry of the canonical (serial-DFS-order) event sequence produced by
// frontier enumeration: a shallow run (execution or cut), a work unit, or
// the subtrees pruned and reduction-skipped while advancing past the
// previous entry — which in canonical order sit *after* a unit's whole
// subtree, hence their own entry, so tallies truncated at a winning
// violation inside that unit stay exact. A unit's subtree tallies live in
// its record and count right after the entry's own delta.
struct EventMeta {
  ExplorerTally delta;
  UnitRecord* unit = nullptr;
};

// Picks a frontier depth giving roughly 16+ work items per worker (assuming
// the minimum branching factor of 2), so the pool load-balances even when
// subtree sizes are badly skewed.
std::size_t auto_frontier_depth(int threads) {
  std::size_t depth = 1;
  while ((std::size_t{1} << depth) < static_cast<std::size_t>(threads) * 16 &&
         depth < 10) {
    ++depth;
  }
  return depth;
}

// Capacity of the frontier work-unit ring. When it is full the producer
// drains a unit itself, so the ring only bounds how far enumeration runs
// ahead of the workers.
constexpr std::size_t kFrontierQueueCapacity = 256;

// Streaming parallel exploration: the calling thread enumerates the decision
// tree down to the frontier depth in serial DFS order (restart_dfs with a
// decision limit, this object as its sink), pushing each work unit through
// a bounded ring to `threads - 1` workers as it is discovered — and
// draining units itself when the ring backs up, or after enumeration
// completes. Canonical aggregation afterwards walks the event sequence in
// order, truncating at the winning violation, so every reported tally is
// bit-identical to the serial explorer's regardless of thread timing.
class ParallelSearch {
 public:
  ParallelSearch(const ExecutionBody& body, const Explorer::Options& opts,
                 SearchState& state, Checkpointer& cp)
      : body_(body), opts_(opts), state_(state), cp_(cp) {}

  // Workers hold `this`.
  ParallelSearch(const ParallelSearch&) = delete;
  ParallelSearch& operator=(const ParallelSearch&) = delete;

  SubtreeStats run(int threads, std::vector<Decision> initial_prefix) {
    const std::size_t depth =
        opts_.frontier_depth > 0
            ? static_cast<std::size_t>(opts_.frontier_depth)
            : auto_frontier_depth(threads);
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads - 1));
    for (int w = 0; w < threads - 1; ++w) {
      pool.emplace_back([this] { worker_loop(); });
    }
    const bool finished_tree =
        restart_dfs(body_, std::move(initial_prefix), 0, depth, opts_, state_,
                    producer_budget_, *this);
    producer_budget_.release();
    {
      const std::lock_guard<std::mutex> lk(qmu_);
      producer_done_ = true;
    }
    qcv_.notify_all();
    worker_loop();  // help drain whatever is still queued
    for (std::thread& t : pool) {
      t.join();
    }

    // Canonical aggregation: sum the events up to and including the winning
    // violation's. Units after the winner are excluded even if they ran (the
    // serial DFS would never have entered them). Exhaustion manifests as an
    // unfinished unit or an unfinished frontier, so `finished` needs no
    // separate exhaustion flag (and cannot be spuriously false when the
    // budget exactly equals the tree size).
    SubtreeStats total;
    const std::optional<ViolationLog::Entry> win = state_.log.winner();
    const std::size_t end =
        win ? std::min<std::size_t>(events_.size(), win->index + 1)
            : events_.size();
    total.finished = finished_tree;
    sum_events(end, total.tally, total.finished);
    if (win) {
      total.violation = win->message;
      total.trace = win->trace;
    }
    // The canonically first stuck execution — reported only when the serial
    // DFS would have reached it before stopping (within one unit, DFS order
    // puts the unit's stuck before its violation).
    total.first_stuck = stuck_before(end);
    return total;
  }

  // --- restart_dfs sink: the producer's outcomes become canonical events ---

  [[nodiscard]] std::uint64_t index() const noexcept { return events_.size(); }

  void take(Outcome out, const std::vector<Decision>& trace) {
    UnitRecord* unit = nullptr;
    if (out.unit) {
      unit = &units_.emplace_back();
      unit->index = events_.size();
      unit->prefix = trace;
    }
    events_.push_back(EventMeta{out.delta, unit});
    const std::uint64_t at = events_.size() - 1;
    if (out.stuck) {
      state_.stuck_log.report(at, std::move(*out.stuck), trace);
    }
    if (out.violation) {
      // A violating shallow execution beats everything that would have
      // followed; restart_dfs stops enumerating.
      state_.log.report(at, std::move(*out.violation), trace);
    }
    if (unit != nullptr) {
      enqueue(unit);
    }
  }

  void skipped(const ExplorerTally& skips) {
    if (skips.pruned > 0 || skips.reduced > 0) {
      events_.push_back(EventMeta{skips, nullptr});
    }
  }

  // Periodic checkpoint: the watermark is the tally over the longest
  // contiguous prefix of canonical events whose work has completed (non-unit
  // events complete at production; a unit when its done flag is set), and
  // the restart prefix is the first incomplete unit's — or the producer's
  // next prefix when everything produced so far is done. Work completed
  // beyond the watermark is deliberately not saved: a resume redoes it, and
  // the canonical aggregation makes the redone tallies land on the same
  // final Result.
  void next(const std::vector<Decision>& prefix) {
    if (!cp_.due(static_cast<std::int64_t>(events_.size()))) {
      return;
    }
    ExplorerTally watermark;
    bool finished = true;
    const std::size_t mark = sum_events(events_.size(), watermark, finished);
    cp_.write(watermark, stuck_before(mark),
              mark < events_.size() ? events_[mark].unit->prefix : prefix);
  }

 private:
  // Sums the events before `end` into `tally`, stopping at the first unit
  // whose subtree is not done yet; returns where it stopped. Clears
  // `finished` when a summed unit stopped short of exhausting its subtree.
  std::size_t sum_events(std::size_t end, ExplorerTally& tally,
                         bool& finished) const {
    for (std::size_t i = 0; i < end; ++i) {
      const EventMeta& ev = events_[i];
      if (ev.unit != nullptr &&
          !ev.unit->done.load(std::memory_order_acquire)) {
        return i;
      }
      tally += ev.delta;
      if (ev.unit != nullptr) {
        tally += ev.unit->stats.tally;
        finished = finished && ev.unit->stats.finished;
      }
    }
    return end;
  }

  // The canonically first stuck execution among the events before `end`.
  std::optional<StuckExecution> stuck_before(std::size_t end) const {
    const std::optional<ViolationLog::Entry> sw = state_.stuck_log.winner();
    if (!sw || sw->index >= end) {
      return std::nullopt;
    }
    return StuckExecution{sw->message, sw->trace};
  }

  void enqueue(UnitRecord* unit) {
    while (!queue_.try_push(std::move(unit))) {
      // Ring full: drain one unit here (natural backpressure). Drop the
      // producer's budget hold first — the drained subtree claims its own,
      // and a grant held across a blocking drain could starve parked peers
      // into deadlock.
      producer_budget_.release();
      UnitRecord* mine = nullptr;
      if (queue_.try_pop(mine)) {
        process(mine);
      }
    }
    {
      const std::lock_guard<std::mutex> lk(qmu_);
    }
    qcv_.notify_one();
  }

  void process(UnitRecord* unit) {
    // Units arrive in canonical order; once a violation beats this unit it
    // beats every later one too, so skip without exploring (the zeroed
    // stats slot sits beyond the winner during aggregation anyway).
    if (state_.log.best_index() >= unit->index) {
      unit->stats = explore_subtree(body_, unit->prefix, unit->prefix.size(),
                                    opts_, state_, unit->index);
      const SubtreeStats& s = unit->stats;
      if (s.violation) {
        state_.log.report(unit->index, *s.violation, s.trace);
      }
      if (s.first_stuck) {
        state_.stuck_log.report(unit->index, s.first_stuck->message,
                                s.first_stuck->trace);
      }
    }
    unit->done.store(true, std::memory_order_release);
  }

  void worker_loop() {
    UnitRecord* unit = nullptr;
    for (;;) {
      if (!queue_.try_pop(unit)) {
        std::unique_lock<std::mutex> lk(qmu_);
        // Re-check under the lock: a push that raced our failed pop is
        // visible here, and the producer notifies only after taking qmu_,
        // so a wakeup between the re-check and wait() cannot be missed.
        if (queue_.try_pop(unit)) {
          lk.unlock();
        } else if (producer_done_) {
          return;
        } else {
          qcv_.wait(lk);
          continue;
        }
      }
      process(unit);
    }
  }

  const ExecutionBody& body_;
  const Explorer::Options& opts_;
  SearchState& state_;
  Checkpointer& cp_;
  BudgetScope producer_budget_{state_};
  std::vector<EventMeta> events_;  // producer-only until workers join
  std::deque<UnitRecord> units_;   // deque: grows with stable addresses
  BoundedQueue<UnitRecord*> queue_{kFrontierQueueCapacity};
  std::mutex qmu_;
  std::condition_variable qcv_;
  bool producer_done_ = false;  // guarded by qmu_
};

// The one conversion from canonical tallies to the public Result.
Explorer::Result result_from_snapshot(const ExplorerSnapshot& s) {
  Explorer::Result r;
  r.executions = s.executions;
  r.pruned_subtrees = s.pruned;
  r.reduced_subtrees = s.reduced;
  r.crashed_executions = s.crashed;
  r.recovered_executions = s.recovered;
  r.stuck_executions = s.stuck;
  r.stateful_cuts = s.stateful_cuts;
  r.complete = s.complete;
  if (s.violation) {
    r.violation = s.violation;
    r.violating_trace = s.violating_trace;
  }
  if (s.stuck_message) {
    r.first_stuck = StuckExecution{*s.stuck_message, s.stuck_trace};
  }
  return r;
}

void validate_options(const Explorer::Options& opts) {
  if (opts.max_executions <= 0) {
    throw SimError("Explorer::Options::max_executions must be positive, got " +
                   std::to_string(opts.max_executions));
  }
  if (opts.frontier_depth < 0) {
    throw SimError(
        "Explorer::Options::frontier_depth must be non-negative, got " +
        std::to_string(opts.frontier_depth));
  }
  if (opts.max_crashes < 0) {
    throw SimError(
        "Explorer::Options::max_crashes must be non-negative, got " +
        std::to_string(opts.max_crashes));
  }
  if (opts.max_recoveries < 0) {
    throw SimError(
        "Explorer::Options::max_recoveries must be non-negative, got " +
        std::to_string(opts.max_recoveries));
  }
  if (opts.step_quota < 0) {
    throw SimError("Explorer::Options::step_quota must be non-negative, got " +
                   std::to_string(opts.step_quota));
  }
  if (opts.stateful_capacity <= 0) {
    throw SimError(
        "Explorer::Options::stateful_capacity must be positive, got " +
        std::to_string(opts.stateful_capacity));
  }
  if (opts.stateful && opts.prune) {
    // A pruned subtree is marked visited without having been explored, so a
    // later stateful cut on its fingerprint would skip unexplored behaviour.
    throw SimError(
        "Explorer::Options::stateful cannot be combined with a prune hook");
  }
  if (opts.checkpoint_every <= 0) {
    throw SimError("Explorer::Options::checkpoint_every must be positive, "
                   "got " +
                   std::to_string(opts.checkpoint_every));
  }
}

// The shared implementation behind explore() and resume(): runs the search
// over the part of the tree at and after `initial_prefix`, with `base`
// carrying a resumed snapshot's watermark (tallies folded into the final
// Result, stuck winner taking canonical precedence).
Explorer::Result explore_impl(const ExecutionBody& body,
                              const Explorer::Options& opts,
                              std::vector<Decision> initial_prefix,
                              const ExplorerSnapshot* base) {
  const int threads = Explorer::resolve_threads(opts.threads);
  const ExplorerSnapshot proto = snapshot_proto(opts, base);
  SearchState state;
  state.max_executions = opts.max_executions - proto.executions;
  if (opts.stateful) {
    state.visited = std::make_unique<detail::VisitedSet>(
        static_cast<std::size_t>(opts.stateful_capacity));
  }
  Checkpointer cp(opts, proto);
  SubtreeStats stats =
      threads <= 1
          ? explore_subtree(body, std::move(initial_prefix), /*floor=*/0, opts,
                            state, /*my_index=*/0, &cp)
          : ParallelSearch(body, opts, state, cp)
                .run(threads, std::move(initial_prefix));

  ExplorerSnapshot fin = on_top(proto, stats.tally, stats.first_stuck);
  fin.done = true;
  fin.complete = !stats.violation && stats.finished;
  if (stats.violation) {
    fin.violation = std::move(stats.violation);
    fin.violating_trace =
        opts.shrink_violations ? Explorer::shrink(body, std::move(stats.trace))
                               : std::move(stats.trace);
  }
  if (!opts.checkpoint_path.empty()) {
    save_snapshot(opts.checkpoint_path, fin);
  }
  Explorer::Result result = result_from_snapshot(fin);
  if (state.visited != nullptr) {
    result.stateful_states = static_cast<std::int64_t>(state.visited->size());
  }
  return result;
}

// Lexicographic order on decision strings (chosen values; a proper prefix
// precedes its extensions). The shrinker's notion of "smaller reproducer".
bool lex_less(const std::vector<Decision>& a, const std::vector<Decision>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].chosen != b[i].chosen) {
      return a[i].chosen < b[i].chosen;
    }
  }
  return a.size() < b.size();
}

// One shrink probe: replays `prefix` (reduction off, so recorded sleep-set
// metadata is ignored and every skip the original search made is re-opened)
// and lets the ReplayDriver zero-extend it to a complete execution. Returns
// the violation, if any, plus the canonical full decision string. Crash and
// recovery flags are preserved: recorded crash/recovery decisions replay
// their faults and restarts, and the zero-extension injects no fresh ones
// (a shrunk reproducer's fault pattern is exactly the prefix's).
struct ShrinkProbe {
  std::optional<std::string> violation;
  std::vector<Decision> trace;
};

ShrinkProbe probe(const ExecutionBody& body, std::vector<Decision> prefix) {
  for (Decision& d : prefix) {
    d.enabled = 0;  // stale reduction metadata from the recording search
    d.sleep = 0;
  }
  ReplayDriver driver(std::move(prefix));
  ShrinkProbe out;
  try {
    body(driver);
  } catch (const std::exception& e) {
    out.violation = e.what();
  }
  out.trace = driver.take_trace();
  return out;
}

}  // namespace

std::optional<std::string> run_one(const ExecutionBody& body,
                                   SchedulePolicy& policy,
                                   TraceObserver* observer) {
  // Thread-default installation is what lets the observer see runtimes the
  // body constructs internally; nullptr deliberately masks any outer scope
  // so unobserved searches stay unobserved.
  const ScopedObserver scope(observer);
  try {
    body(policy);
  } catch (const std::exception& e) {
    if (observer != nullptr) {
      observer->on_violation(e.what());
    }
    return std::string(e.what());
  }
  return std::nullopt;
}

std::vector<ReplayDriver::Decision> Explorer::shrink(
    const ExecutionBody& body, std::vector<ReplayDriver::Decision> trace) {
  ShrinkProbe current = probe(body, std::move(trace));
  if (!current.violation) {
    return current.trace;  // not a reproducer; hand back the canonical form
  }
  // Greedy descent: adopt any strictly lex-smaller failing candidate and
  // restart. Strictness is what terminates the loop — a truncation whose
  // zero-extension reproduces the identical string is not an improvement.
  // Termination: candidate strings for a fixed world have bounded length
  // (the run's decision count) and bounded values (arities), and every
  // adoption strictly decreases in a total order on that finite set.
  bool improved = true;
  while (improved) {
    improved = false;
    // Pass 1 — prefix truncations, shortest first: the biggest wins come
    // from chopping the whole tail.
    for (std::size_t len = 0; len < current.trace.size() && !improved;
         ++len) {
      ShrinkProbe cand = probe(
          body, std::vector<Decision>(current.trace.begin(),
                                      current.trace.begin() +
                                          static_cast<std::ptrdiff_t>(len)));
      if (cand.violation && lex_less(cand.trace, current.trace)) {
        current = std::move(cand);
        improved = true;
      }
    }
    if (improved) {
      continue;
    }
    // Pass 2 — lower one decision and drop the suffix. Lowering position p
    // keeps the prefix intact, so the candidate is lex-smaller by
    // construction whenever it still fails.
    for (std::size_t pos = 0; pos < current.trace.size() && !improved;
         ++pos) {
      for (std::uint32_t v = 0; v < current.trace[pos].chosen && !improved;
           ++v) {
        std::vector<Decision> prefix(
            current.trace.begin(),
            current.trace.begin() + static_cast<std::ptrdiff_t>(pos) + 1);
        prefix[pos].chosen = v;
        ShrinkProbe cand = probe(body, std::move(prefix));
        if (cand.violation && lex_less(cand.trace, current.trace)) {
          current = std::move(cand);
          improved = true;
        }
      }
    }
  }
  return current.trace;
}

int Explorer::resolve_threads(int threads) noexcept {
  if (threads > 0) {
    return threads;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

Explorer::Result Explorer::explore(const ExecutionBody& body, Options opts) {
  validate_options(opts);
  return explore_impl(body, opts, {}, nullptr);
}

Explorer::Result Explorer::resume(const ExecutionBody& body,
                                  const std::string& snapshot_path,
                                  Options opts) {
  validate_options(opts);
  ExplorerSnapshot snap = load_snapshot(snapshot_path);
  if (snap.max_executions != opts.max_executions ||
      snap.max_crashes != opts.max_crashes ||
      snap.max_recoveries != opts.max_recoveries ||
      snap.step_quota != opts.step_quota ||
      snap.reduction != (opts.reduction == Reduction::kSleepSets) ||
      snap.stateful != opts.stateful) {
    throw SimError("Explorer::resume: snapshot " + snapshot_path +
                   " was taken under different options (max_executions, "
                   "max_crashes, max_recoveries, step_quota, reduction and "
                   "stateful must match)");
  }
  if (snap.done || opts.max_executions - snap.executions <= 0) {
    // Finished searches (and watermarks that already spent the whole
    // budget) resume to their saved Result without re-running anything.
    return result_from_snapshot(snap);
  }
  std::vector<Decision> prefix = snap.prefix;
  return explore_impl(body, opts, std::move(prefix), &snap);
}

void Explorer::replay(const ExecutionBody& body,
                      std::vector<ReplayDriver::Decision> trace) {
  ReplayDriver driver(std::move(trace));
  body(driver);
}

RandomSweep::Result RandomSweep::run(const ExecutionBody& body,
                                     std::int64_t runs,
                                     std::uint64_t first_seed, int threads,
                                     TraceObserver* observer) {
  Result result;
  if (runs <= 0) {
    return result;
  }
  const int workers = std::min<std::int64_t>(
      Explorer::resolve_threads(threads), runs);
  if (workers <= 1) {
    for (std::int64_t i = 0; i < runs; ++i) {
      const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);
      RandomDriver driver(seed);
      ++result.runs;
      if (std::optional<std::string> violation =
              run_one(body, driver, observer)) {
        result.failing_seed = seed;
        result.violation = std::move(violation);
        return result;
      }
    }
    return result;
  }

  // Parallel sweep: workers claim fixed-size blocks of the seed range in
  // ascending order; failures are aggregated by seed index, so the reported
  // failure is the least failing seed — exactly what the serial sweep
  // returns — and blocks past the current best are never started.
  constexpr std::int64_t kBlock = 64;
  ViolationLog log;
  std::atomic<std::int64_t> next_block{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&]() {
      for (;;) {
        const std::int64_t start =
            next_block.fetch_add(1, std::memory_order_relaxed) * kBlock;
        if (start >= runs ||
            log.best_index() < static_cast<std::uint64_t>(start)) {
          return;
        }
        const std::int64_t end = std::min(start + kBlock, runs);
        for (std::int64_t i = start; i < end; ++i) {
          if (log.best_index() < static_cast<std::uint64_t>(i)) {
            break;
          }
          RandomDriver driver(first_seed + static_cast<std::uint64_t>(i));
          if (std::optional<std::string> violation =
                  run_one(body, driver, observer)) {
            log.report(static_cast<std::uint64_t>(i), *violation, {});
            break;  // later seeds in this block cannot beat index i
          }
        }
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }

  if (const std::optional<ViolationLog::Entry> win = log.winner()) {
    result.runs = static_cast<std::int64_t>(win->index) + 1;
    result.failing_seed = first_seed + win->index;
    result.violation = win->message;
  } else {
    result.runs = runs;
  }
  return result;
}

}  // namespace subc
