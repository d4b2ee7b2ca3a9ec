#include "subc/runtime/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "subc/runtime/fiber.hpp"
#include "subc/runtime/observer.hpp"

namespace subc {

std::string to_string(ProcState s) {
  switch (s) {
    case ProcState::kRunning:
      return "running";
    case ProcState::kDone:
      return "done";
    case ProcState::kHung:
      return "hung";
    case ProcState::kCrashed:
      return "crashed";
  }
  return "?";
}

// Procs live in the runtime's leased arena (placement-new in
// add_process/add_stepped, explicit destruction in ~Runtime), so world
// construction is a couple of pointer bumps rather than one heap round-trip
// per process. The record carries both engines' fields; only fiber procs
// additionally carve a Fiber (and its pooled stack) from the arena, so a
// stepped proc's whole footprint is this small block plus its state block.
struct Runtime::Proc {
  Context ctx;
  ProcState state = ProcState::kRunning;
  Engine engine;
  std::int64_t steps = 0;
  /// Crash-recovery: how many times this process has restarted. 0 for the
  /// original incarnation; bumped by Runtime::recover.
  std::uint32_t incarnation = 0;
  /// Stateful exploration: this process's running observation-chain hash
  /// (one term of the world fingerprint). 0 until run() seeds it.
  std::uint64_t fp_chain = 0;
  /// Footprint of the pending step, announced at the sched_point /
  /// SUBC_STEP_POINT that suspended the process. Default (unknown) until
  /// the first announcement and after any footprint-less one.
  Access next_access;

  // Stepped engine (Engine::kStepped): the explicit state machine.
  SteppedFn step_fn = nullptr;
  void* step_state = nullptr;
  void (*step_dtor)(void*) = nullptr;
  std::uint32_t step_resume = 0;
  /// Set by StepContext::suspend/finish during a `step` call; a stepped
  /// body returning with this false (and the process still running) forgot
  /// its SUBC_STEP_POINT/END and is diagnosed instead of spinning.
  bool step_advanced = false;
  /// Restartability (crash-recovery): clone snapshots the pristine state
  /// block, restore copy-assigns it back on recovery. Null for state blocks
  /// registered without copy support (recover() then diagnoses). The
  /// pristine snapshot is carved lazily at run() start, and only when the
  /// driver wants recovery — crash-stop runs never pay for it.
  void* (*step_clone)(const void*, Runtime&) = nullptr;
  void (*step_restore)(void*, const void*) = nullptr;
  void* step_pristine = nullptr;

  // Fiber engine (Engine::kFiber): body function + arena-carved fiber.
  ProcessFn fn;
  Fiber* fiber = nullptr;

  static void entry(void* raw) {
    Proc* p = static_cast<Proc*>(raw);
    p->fn(p->ctx);
  }

  Proc(Runtime* rt, int pid, ProcessFn f)
      : ctx(rt, pid), engine(Engine::kFiber), fn(std::move(f)) {
    fiber = rt->arena_->create<Fiber>(&Proc::entry, this);
  }

  Proc(Runtime* rt, int pid, SteppedFn f, void* state, void (*dtor)(void*))
      : ctx(rt, pid),
        engine(Engine::kStepped),
        step_fn(f),
        step_state(state),
        step_dtor(dtor) {}

  ~Proc() {
    // Kill-unwind the fiber (if any) while `fn` is still alive, then tear
    // down the stepped state block the runtime adopted.
    if (fiber != nullptr) {
      fiber->~Fiber();
      fiber = nullptr;
    }
    if (step_dtor != nullptr) {
      step_dtor(step_state);
      if (step_pristine != nullptr) {
        step_dtor(step_pristine);
      }
      step_dtor = nullptr;
    }
    step_pristine = nullptr;
  }
};

Runtime::Runtime() : observer_(thread_default_observer()) {}

Runtime::~Runtime() {
  // Reverse construction order; the arena reclaims the storage when the
  // lease member is released.
  for (std::size_t i = num_procs_; i > 0; --i) {
    procs_[i - 1]->~Proc();
  }
}

int Runtime::attach_proc(Proc* proc) {
  if (num_procs_ == procs_cap_) {
    const std::size_t cap = procs_cap_ == 0 ? 8 : procs_cap_ * 2;
    Proc** grown = arena_->allocate_array<Proc*>(cap);
    std::copy(procs_, procs_ + num_procs_, grown);
    procs_ = grown;
    procs_cap_ = cap;
  }
  procs_[num_procs_] = proc;
  ++num_procs_;
  if (decisions_.size() == decisions_.capacity()) {
    decisions_.reserve(std::max<std::size_t>(8, decisions_.capacity() * 2));
  }
  decisions_.push_back(kBottom);
  return static_cast<int>(num_procs_) - 1;
}

int Runtime::add_process(ProcessFn fn) {
  if (started_) {
    throw SimError("add_process after run() started");
  }
  if (!fn) {
    throw SimError("add_process requires a non-empty function");
  }
  const int pid = num_processes();
  return attach_proc(arena_->create<Proc>(this, pid, std::move(fn)));
}

int Runtime::add_stepped_raw(SteppedFn fn, void* state,
                             void (*destroy)(void*)) {
  if (started_) {
    throw SimError("add_stepped after run() started");
  }
  if (fn == nullptr) {
    throw SimError("add_stepped requires a non-null step function");
  }
  const int pid = num_processes();
  return attach_proc(arena_->create<Proc>(this, pid, fn, state, destroy));
}

void Runtime::set_stepped_recovery(int pid,
                                   void* (*clone)(const void*, Runtime&),
                                   void (*restore)(void*, const void*)) {
  check_pid(pid);
  Proc& proc = *procs_[static_cast<std::size_t>(pid)];
  SUBC_ASSERT(proc.engine == Engine::kStepped);
  proc.step_clone = clone;
  proc.step_restore = restore;
}

void* Runtime::carve_stepped_block(std::size_t bytes, std::size_t align) {
  auto& cells = detail::alloc_counter_cells();
  const std::uint64_t chunks_before =
      cells.arena_chunks.load(std::memory_order_relaxed);
  void* block = arena_->allocate(bytes, align);
  cells.stepped_blocks_carved.fetch_add(1, std::memory_order_relaxed);
  cells.stepped_block_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (cells.arena_chunks.load(std::memory_order_relaxed) == chunks_before) {
    // Carved from already-warm arena storage: the steady state the
    // allocation-free hot path is designed for.
    cells.stepped_block_reuses.fetch_add(1, std::memory_order_relaxed);
  }
  return block;
}

void Runtime::check_pid(int pid) const {
  if (pid < 0 || pid >= num_processes()) {
    throw SimError("pid out of range: " + std::to_string(pid));
  }
}

std::size_t Runtime::collect_enabled(int* enabled, Access* footprints) const {
  std::size_t n = 0;
  for (int pid = 0; pid < num_processes(); ++pid) {
    if (procs_[pid]->state == ProcState::kRunning) {
      enabled[n] = pid;
      footprints[n] = procs_[pid]->next_access;
      ++n;
    }
  }
  return n;
}

// --- World-state fingerprint folds (stateful exploration) ----------------
// All three are only ever called with `fp_on_` true; the callers guard, so
// the non-stateful hot path pays one predictable branch per event.

void Runtime::fp_fold(int pid, std::uint64_t v) {
  Proc& p = *procs_[static_cast<std::size_t>(pid)];
  fp_world_ ^= p.fp_chain;
  p.fp_chain = detail::mix64(p.fp_chain ^ v);
  fp_world_ ^= p.fp_chain;
}

void Runtime::fp_observe(int pid, std::uint64_t v) {
  if (!fp_on_) {
    return;
  }
  fp_fold(pid, detail::mix64(detail::kFpObserveSalt ^ v));
  fp_step_reported_ = true;
}

void Runtime::fp_commit(std::uint32_t object_id, std::uint64_t state_hash) {
  if (!fp_on_) {
    return;
  }
  // The object announced a footprint before this step, so its id is set.
  SUBC_ASSERT(object_id != 0);
  const std::size_t id = object_id;
  if (fp_objects_.size() <= id) {
    fp_objects_.resize(id + 1, 0);
  }
  fp_world_ ^= fp_objects_[id];
  fp_objects_[id] =
      detail::mix64(state_hash ^ detail::mix64(detail::kFpObjectSalt ^ id));
  fp_world_ ^= fp_objects_[id];
  fp_step_reported_ = true;
}

void Runtime::advance(Proc& proc) {
  if (proc.engine == Engine::kFiber) {
    proc.fiber->resume();
    if (proc.fiber->finished() && proc.state == ProcState::kRunning) {
      proc.state = ProcState::kDone;
      if (fp_on_) {
        fp_fold(proc.ctx.pid(), detail::kFpDoneSalt);
      }
    }
    return;
  }
  proc.step_advanced = false;
  StepContext ctx(this, proc.ctx.pid());
  proc.step_fn(proc.step_state, ctx);
  if (proc.state == ProcState::kRunning && !proc.step_advanced) {
    throw SimError("stepped body returned without SUBC_STEP_POINT/END "
                   "(pid " +
                   std::to_string(proc.ctx.pid()) + ")");
  }
}

Runtime::RunResult Runtime::run(SchedulePolicy& driver,
                                std::int64_t max_steps) {
  if (started_) {
    throw SimError("Runtime::run is single-use");
  }
  started_ = true;
  driver_ = &driver;
  driver.begin_run();
  // Stateful exploration: seed every process's observation chain before any
  // code (including priming prologues) can fold into it. The chain seeds
  // encode the pid, so the world fingerprint distinguishes "who did what"
  // without any further per-fold pid mixing.
  fp_on_ = driver.wants_state_fp();
  if (fp_on_) {
    fp_world_ = 0;
    fp_valid_ = true;
    for (std::size_t i = 0; i < num_procs_; ++i) {
      Proc* proc = procs_[i];
      proc->fp_chain = detail::mix64(detail::kFpProcSalt ^ i);
      fp_world_ ^= proc->fp_chain;
    }
  }
  // Crash-recovery: cache the capability once per run (crash-stop drivers
  // pay one virtual call), and snapshot pristine copies of the copyable
  // stepped state blocks *before* priming mutates them — recover() restores
  // from these so a restarted stepped body re-enters from the top.
  const bool recovery_on = driver.wants_recovery();
  if (recovery_on) {
    for (std::size_t i = 0; i < num_procs_; ++i) {
      Proc* proc = procs_[i];
      if (proc->engine == Engine::kStepped && proc->step_clone != nullptr &&
          proc->step_pristine == nullptr) {
        proc->step_pristine = proc->step_clone(proc->step_state, *this);
      }
    }
  }
  if (observer_ != nullptr) {
    observer_->on_run_begin(num_processes());
  }

  // Prime every process: run its process-local prologue up to the first
  // shared-memory operation (the first sched_point / SUBC_STEP_POINT).
  // Priming executes no shared step, so it is not a scheduling decision —
  // but it does announce each process's first footprint, so every pick
  // below sees a complete footprint vector.
  for (std::size_t i = 0; i < num_procs_; ++i) {
    Proc* proc = procs_[i];
    if (proc->state == ProcState::kRunning) {
      advance(*proc);
    }
  }

  RunResult result;
  int* enabled_buf = arena_->allocate_array<int>(num_procs_);
  Access* footprints_buf = arena_->allocate_array<Access>(num_procs_);
  int* crashed_buf =
      recovery_on ? arena_->allocate_array<int>(num_procs_) : nullptr;
  while (true) {
    const std::size_t num_enabled =
        collect_enabled(enabled_buf, footprints_buf);
    const std::span<const int> enabled(enabled_buf, num_enabled);
    const std::span<const Access> footprints(footprints_buf, num_enabled);
    // Under recovery an empty enabled set is not yet the end of the run:
    // a crashed process may still restart below. Only the combination
    // "nobody runnable and nobody recoverable" terminates.
    const bool recovery_live = recovery_on && num_crashed_ > 0;
    if (enabled.empty() && !recovery_live) {
      break;
    }
    if (total_steps_ >= max_steps) {
      driver_ = nullptr;
      throw SimError("step bound exceeded with processes still runnable (" +
                     std::to_string(max_steps) + " steps)");
    }
    // Stateful exploration: report the world fingerprint at every decision
    // point, *before* the crash branch point — a visited-set cut then skips
    // the whole crash branching below this state too, which is sound
    // because equal fingerprints imply equal crash folds and hence equal
    // remaining crash budget. A StatefulCut thrown here unwinds the run.
    if (fp_on_) {
      driver.on_state_fp(fp_world_, fp_valid_);
    }
    // Crash-recovery: consult the policy with the crashed pids before fault
    // injection and the pick. Recovered pids rejoin the enabled set, so
    // restart the decision point (the policy is re-consulted — multi-restart
    // sets build up one decision at a time, like multi-crash sets).
    if (recovery_live) {
      std::size_t num_crashed = 0;
      for (int pid = 0; pid < num_processes(); ++pid) {
        if (procs_[pid]->state == ProcState::kCrashed) {
          crashed_buf[num_crashed++] = pid;
        }
      }
      if (const std::uint64_t revived = driver.recovery_requests(
              std::span<const int>(crashed_buf, num_crashed));
          revived != 0) {
        bool any = false;
        for (std::size_t i = 0; i < num_crashed; ++i) {
          const int pid = crashed_buf[i];
          if (pid < 64 && ((revived >> pid) & 1) != 0) {
            recover(pid);
            any = true;
          }
        }
        if (any) {
          continue;  // recompute the enabled set with the fresh incarnations
        }
      }
    }
    if (enabled.empty()) {
      break;  // recovery declined with nobody runnable: the run ends
    }
    // Fault injection: consult the policy before the pick. Crashed pids are
    // retired here, so the pick below only ever sees survivors. Bits for
    // pids that are not enabled are ignored (guards against a policy that
    // re-requests an already-crashed pid forever).
    if (const std::uint64_t doomed = driver.crash_requests(enabled);
        doomed != 0) {
      bool any = false;
      for (const int pid : enabled) {
        if (pid < 64 && ((doomed >> pid) & 1) != 0) {
          crash(pid);
          any = true;
        }
      }
      if (any) {
        continue;  // recompute the enabled set (it may now be empty)
      }
    }
    const std::size_t idx = driver.pick(enabled, footprints);
    SUBC_ASSERT(idx < enabled.size());
    const int pid = enabled[idx];
    Proc& proc = *procs_[pid];
    if (proc.state != ProcState::kRunning) {
      // The driver crashed processes during pick(); its answer may be
      // stale. Recompute the enabled set and ask again.
      continue;
    }
    if (observer_ != nullptr) {
      observer_->on_step(StepEvent{pid, total_steps_, footprints[idx]});
    }
    ++total_steps_;
    ++proc.steps;
    if (fp_on_) {
      // Fold the grant itself (per-proc step counts are the monotone spine
      // of the fingerprint: no state can repeat within one execution), then
      // demand that the step reports something — a granted step that folds
      // nothing ran an unported operation, and its effects are invisible to
      // the fingerprint, so the whole execution's fingerprints are poisoned.
      fp_step_reported_ = false;
      fp_fold(pid, detail::kFpStepSalt);
      advance(proc);
      if (!fp_step_reported_) {
        fp_valid_ = false;
      }
    } else {
      advance(proc);
    }
  }
  if (fp_on_) {
    driver.on_run_fp(fp_world_, fp_valid_);
  }
  driver_ = nullptr;

  result.decisions = decisions_;
  result.states.reserve(num_procs_);
  result.quiescent = true;
  for (std::size_t i = 0; i < num_procs_; ++i) {
    result.states.push_back(procs_[i]->state);
    if (procs_[i]->state == ProcState::kHung) {
      result.quiescent = false;
    }
  }
  result.total_steps = total_steps_;
  if (observer_ != nullptr) {
    observer_->on_run_end(result.total_steps, result.quiescent);
  }
  return result;
}

void Runtime::crash(int pid) {
  check_pid(pid);
  Proc& proc = *procs_[pid];
  if (proc.state == ProcState::kRunning) {
    proc.state = ProcState::kCrashed;
    ++num_crashed_;
    // The crash write-footprints the victim in the fingerprint: worlds that
    // differ only in who has crashed must not alias (the crashed set also
    // determines how much of the crash budget remains).
    if (fp_on_ && started_) {
      fp_fold(pid, detail::kFpCrashSalt);
    }
    // The crash event wipes volatile object state (Durability::kVolatile):
    // each hook reverts one object to its initial value and re-publishes
    // its state hash. Idempotent, so multi-crash chains at one decision
    // point are safe. Empty in every crash-stop world.
    for (const auto& reset : volatile_resets_) {
      reset(*this);
    }
    if (observer_ != nullptr) {
      observer_->on_crash(pid, total_steps_);
    }
  }
}

void Runtime::recover(int pid) {
  check_pid(pid);
  Proc& proc = *procs_[pid];
  if (proc.state != ProcState::kCrashed) {
    throw SimError("recover(" + std::to_string(pid) + "): process is " +
                   to_string(proc.state) + ", not crashed");
  }
  if (started_) {
    // Rebirth of the volatile process state: a fresh fiber stack, or the
    // pristine pre-run copy of the stepped state block. Shared objects are
    // untouched here — durable state persists by doing nothing, volatile
    // state was already wiped by the crash event itself.
    if (proc.engine == Engine::kFiber) {
      Fiber* old = proc.fiber;
      proc.fiber = nullptr;
      if (old != nullptr) {
        old->~Fiber();  // kill-unwinds the crashed incarnation's stack
      }
      proc.fiber = arena_->create<Fiber>(&Proc::entry, &proc);
    } else {
      if (proc.step_restore == nullptr || proc.step_pristine == nullptr) {
        throw SimError("recover(" + std::to_string(pid) +
                       "): stepped state block is not copyable, no pristine "
                       "snapshot to restart from");
      }
      proc.step_restore(proc.step_state, proc.step_pristine);
      proc.step_resume = 0;
    }
    proc.next_access = Access{};
  }
  proc.state = ProcState::kRunning;
  ++proc.incarnation;
  --num_crashed_;
  // Salt the fingerprint per incarnation: "p restarted once" and "p
  // restarted twice" are different worlds (different remaining recovery
  // budget, different re-execution prefixes) and must never alias.
  if (fp_on_ && started_) {
    fp_fold(pid, detail::mix64(detail::kFpRecoverSalt ^ proc.incarnation));
  }
  if (observer_ != nullptr) {
    observer_->on_recover(pid, total_steps_);
  }
  if (started_) {
    // Re-prime the fresh incarnation: run its prologue up to its first
    // sched_point so the next pick sees its footprint, exactly like the
    // initial priming pass.
    advance(proc);
  }
}

std::uint32_t Runtime::incarnation_of(int pid) const {
  check_pid(pid);
  return procs_[pid]->incarnation;
}

void Runtime::add_volatile_reset(std::function<void(Runtime&)> hook) {
  if (!hook) {
    throw SimError("add_volatile_reset requires a non-empty hook");
  }
  volatile_resets_.push_back(std::move(hook));
}

void Runtime::refresh_commit_fp(const ObjectId& obj,
                                std::uint64_t state_hash) {
  // Outside-step republish (volatile resets): unlike fp_commit this never
  // counts as a step report, and an object that has not announced yet
  // (id 0) has no term to refresh.
  if (!fp_on_ || obj.id_ == 0) {
    return;
  }
  const std::size_t id = obj.id_;
  if (fp_objects_.size() <= id) {
    fp_objects_.resize(id + 1, 0);
  }
  fp_world_ ^= fp_objects_[id];
  fp_objects_[id] =
      detail::mix64(state_hash ^ detail::mix64(detail::kFpObjectSalt ^ id));
  fp_world_ ^= fp_objects_[id];
}

std::int64_t Runtime::steps_of(int pid) const {
  check_pid(pid);
  return procs_[pid]->steps;
}

ProcState Runtime::state_of(int pid) const {
  check_pid(pid);
  return procs_[pid]->state;
}

void Context::sched_point() {
  runtime_->procs_[static_cast<std::size_t>(pid_)]->next_access = Access{};
  Fiber::yield();
}

void Context::sched_point(const ObjectId& obj, AccessKind kind) {
  if (obj.id_ == 0) {
    obj.id_ = runtime_->next_object_id_++;
  }
  runtime_->procs_[static_cast<std::size_t>(pid_)]->next_access =
      Access{obj.id_, kind};
  Fiber::yield();
}

std::uint32_t Runtime::proc_choose(int pid, std::uint32_t arity) {
  if (driver_ == nullptr) {
    throw SimError("choose() outside run()");
  }
  const std::uint32_t c = driver_->choose(arity);
  SUBC_ASSERT(c < arity);
  // The chosen value is process-visible nondeterminism: fold it so worlds
  // whose processes observed different choices cannot alias. A choose alone
  // does not count as a fingerprint report — the operation around it may
  // still mutate unported state.
  if (fp_on_) {
    fp_fold(pid, detail::mix64(detail::kFpChooseSalt ^ c));
  }
  if (observer_ != nullptr) {
    observer_->on_choose(pid, arity, c);
  }
  return c;
}

void Runtime::proc_decide(int pid, Value v) {
  if (v == kBottom) {
    throw SimError("decide(⊥) is not a valid task output");
  }
  Value& slot = decisions_[static_cast<std::size_t>(pid)];
  if (slot != kBottom) {
    // A recovered incarnation legitimately re-runs its body and re-decides;
    // recoverable-task correctness demands it re-decide the *same* value
    // (idempotent, dropped) — a different one is a real disagreement bug.
    if (procs_[static_cast<std::size_t>(pid)]->incarnation > 0) {
      if (slot == v) {
        return;
      }
      throw SimError("process " + std::to_string(pid) +
                     " re-decided differently after recovery: " +
                     std::to_string(slot) + " then " + std::to_string(v));
    }
    throw SimError("process " + std::to_string(pid) + " decided twice");
  }
  slot = v;
  if (fp_on_) {
    fp_fold(pid, detail::mix64(detail::kFpDecideSalt ^
                               static_cast<std::uint64_t>(v)));
  }
}

void Runtime::proc_hang(int pid) {
  // Hang is a report by convention: hangable operations in the object zoo
  // check-and-hang without mutating shared state, so the transition fold
  // captures the step completely.
  if (fp_on_) {
    fp_fold(pid, detail::kFpHungSalt);
    fp_step_reported_ = true;
  }
  procs_[static_cast<std::size_t>(pid)]->state = ProcState::kHung;
}

std::uint32_t Context::choose(std::uint32_t arity) {
  return runtime_->proc_choose(pid_, arity);
}

void Context::decide(Value v) { runtime_->proc_decide(pid_, v); }

void Context::hang() {
  runtime_->proc_hang(pid_);
  for (;;) {
    Fiber::yield();  // Only a kill-unwind ever resumes us; yield() throws.
  }
}

void Context::observe_fp(std::uint64_t v) { runtime_->fp_observe(pid_, v); }

void Context::commit_fp(const ObjectId& obj, std::uint64_t state_hash) {
  runtime_->fp_commit(obj.id_, state_hash);
}

std::uint32_t StepContext::resume_point() const noexcept {
  return runtime_->procs_[static_cast<std::size_t>(pid_)]->step_resume;
}

void StepContext::suspend(std::uint32_t point) {
  SUBC_ASSERT(point != 0);  // 0 is the initial-entry dispatch value
  Runtime::Proc& proc = *runtime_->procs_[static_cast<std::size_t>(pid_)];
  proc.next_access = Access{};
  proc.step_resume = point;
  proc.step_advanced = true;
}

void StepContext::suspend(std::uint32_t point, const ObjectId& obj,
                          AccessKind kind) {
  SUBC_ASSERT(point != 0);
  if (obj.id_ == 0) {
    obj.id_ = runtime_->next_object_id_++;
  }
  Runtime::Proc& proc = *runtime_->procs_[static_cast<std::size_t>(pid_)];
  proc.next_access = Access{obj.id_, kind};
  proc.step_resume = point;
  proc.step_advanced = true;
}

void StepContext::finish() {
  Runtime::Proc& proc = *runtime_->procs_[static_cast<std::size_t>(pid_)];
  if (proc.state == ProcState::kRunning) {
    proc.state = ProcState::kDone;
    if (runtime_->fp_on_) {
      runtime_->fp_fold(pid_, detail::kFpDoneSalt);
    }
  }
  proc.step_advanced = true;
}

void StepContext::hang() { runtime_->proc_hang(pid_); }

bool StepContext::hung() const noexcept {
  return runtime_->procs_[static_cast<std::size_t>(pid_)]->state ==
         ProcState::kHung;
}

std::uint32_t StepContext::choose(std::uint32_t arity) {
  return runtime_->proc_choose(pid_, arity);
}

void StepContext::decide(Value v) { runtime_->proc_decide(pid_, v); }

void StepContext::observe_fp(std::uint64_t v) {
  runtime_->fp_observe(pid_, v);
}

void StepContext::commit_fp(const ObjectId& obj, std::uint64_t state_hash) {
  runtime_->fp_commit(obj.id_, state_hash);
}

}  // namespace subc
