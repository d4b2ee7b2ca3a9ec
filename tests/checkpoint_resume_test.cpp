// Campaign hardening: checkpoint/resume of the exhaustive explorer
// (checking/checkpoint.hpp) and backpressure in the parallel frontier ring
// (the producer drains units inline). The load-bearing claim: killing a
// campaign at an arbitrary periodic snapshot and resuming produces the
// bit-identical final Result an uninterrupted run reports, at any thread
// count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "subc/checking/checkpoint.hpp"
#include "subc/objects/register.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/observer.hpp"
#include "subc/runtime/runtime.hpp"

namespace subc {
namespace {

// Checkpoint files land in the test's working directory (the build tree).
std::string temp_path(const std::string& name) { return name; }

void remove_file(const std::string& path) { std::remove(path.c_str()); }

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// A clean world (no violation): 3 processes x 2 steps, 90 raw schedules.
ExecutionBody clean_body() {
  return [](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> regs(3, kBottom);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        regs[p].write(ctx, p);
        regs[(p + 1) % 3].read(ctx);
      });
    }
    rt.run(driver);
  };
}

// A seeded-violation world: the classic lost update. Each process reads the
// shared counter and writes back the value plus one; schedules where the
// reads overlap lose an increment, and the body flags exactly those.
ExecutionBody lost_update_body() {
  return [](SchedulePolicy& driver) {
    Runtime rt;
    Register<> counter(0);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&](Context& ctx) {
        const Value seen = counter.read(ctx);
        counter.write(ctx, seen + 1);
      });
    }
    rt.run(driver);
    if (counter.peek() != 3) {
      throw SpecViolation("lost update: counter ended at " +
                          to_string(counter.peek()));
    }
  };
}

void expect_same_result(const Explorer::Result& a, const Explorer::Result& b,
                        const std::string& what) {
  EXPECT_EQ(a.executions, b.executions) << what;
  EXPECT_EQ(a.pruned_subtrees, b.pruned_subtrees) << what;
  EXPECT_EQ(a.reduced_subtrees, b.reduced_subtrees) << what;
  EXPECT_EQ(a.crashed_executions, b.crashed_executions) << what;
  EXPECT_EQ(a.recovered_executions, b.recovered_executions) << what;
  EXPECT_EQ(a.stuck_executions, b.stuck_executions) << what;
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.violation, b.violation) << what;
  EXPECT_EQ(format_trace(a.violating_trace), format_trace(b.violating_trace))
      << what;
  EXPECT_EQ(a.first_stuck.has_value(), b.first_stuck.has_value()) << what;
  if (a.first_stuck && b.first_stuck) {
    EXPECT_EQ(a.first_stuck->message, b.first_stuck->message) << what;
    EXPECT_EQ(format_trace(a.first_stuck->trace),
              format_trace(b.first_stuck->trace))
        << what;
  }
}

/// Simulated kill: copies the checkpoint file aside when the campaign
/// reaches its `kill_at`-th execution. Whatever periodic snapshot is on disk
/// at that moment is exactly what a crashed process would leave behind.
class KillPoint final : public TraceObserver {
 public:
  KillPoint(std::string checkpoint, std::string keep, std::int64_t kill_at)
      : checkpoint_(std::move(checkpoint)),
        keep_(std::move(keep)),
        kill_at_(kill_at) {}

  void on_run_begin(int /*num_processes*/) override {
    if (runs_.fetch_add(1, std::memory_order_relaxed) + 1 == kill_at_ &&
        file_exists(checkpoint_)) {
      std::ofstream out(keep_, std::ios::trunc);
      out << read_file(checkpoint_);
    }
  }

 private:
  std::string checkpoint_;
  std::string keep_;
  std::int64_t kill_at_;
  std::atomic<std::int64_t> runs_{0};
};

void run_kill_and_resume(const ExecutionBody& body, Explorer::Options opts,
                         const std::string& tag) {
  Explorer::Options plain = opts;
  plain.checkpoint_path.clear();
  plain.observer = nullptr;
  const auto uninterrupted = Explorer::explore(body, plain);

  for (const std::int64_t kill_at : {3L, 11L, 29L}) {
    const std::string cp = temp_path("subc_ckpt_" + tag + ".jsonl");
    const std::string keep = temp_path("subc_ckpt_" + tag + "_keep.jsonl");
    remove_file(cp);
    remove_file(keep);

    Explorer::Options interrupted = opts;
    interrupted.checkpoint_path = cp;
    interrupted.checkpoint_every = 2;  // snapshot often enough to be killed
    KillPoint killer(cp, keep, kill_at);
    interrupted.observer = &killer;
    Explorer::explore(body, interrupted);

    // A snapshot may not have been written yet at very early kill points
    // (nothing on disk = the campaign restarts from scratch, trivially
    // identical); only resume when the kill actually captured one.
    if (!file_exists(keep)) {
      continue;
    }
    // "Crash": the captured mid-run snapshot becomes the file a restarted
    // campaign finds.
    {
      std::ofstream out(cp, std::ios::trunc);
      out << read_file(keep);
    }
    const ExplorerSnapshot snap = load_snapshot(cp);
    EXPECT_FALSE(snap.done) << tag << " kill_at=" << kill_at;

    Explorer::Options resumed_opts = opts;
    resumed_opts.checkpoint_path = cp;
    const auto resumed = Explorer::resume(body, cp, resumed_opts);
    expect_same_result(resumed, uninterrupted,
                       tag + " kill_at=" + std::to_string(kill_at));

    // The final snapshot the resumed campaign wrote marks the search done
    // and resumes to the same Result without re-running anything.
    const auto reloaded = Explorer::resume(body, cp, resumed_opts);
    expect_same_result(reloaded, uninterrupted, tag + " reloaded");

    EXPECT_FALSE(file_exists(cp + ".spill")) << tag;
    remove_file(cp);
    remove_file(keep);
  }
}

TEST(CheckpointResume, CleanWorldSerial) {
  Explorer::Options opts;
  run_kill_and_resume(clean_body(), opts, "clean_serial");
}

TEST(CheckpointResume, CleanWorldParallel) {
  Explorer::Options opts;
  opts.threads = 4;
  run_kill_and_resume(clean_body(), opts, "clean_par");
}

TEST(CheckpointResume, SeededViolationSerial) {
  Explorer::Options opts;
  opts.reduction = Reduction::kNone;  // keep the violating tree broad
  run_kill_and_resume(lost_update_body(), opts, "viol_serial");
}

TEST(CheckpointResume, SeededViolationParallel) {
  Explorer::Options opts;
  opts.reduction = Reduction::kNone;
  opts.threads = 4;
  run_kill_and_resume(lost_update_body(), opts, "viol_par");
}

TEST(CheckpointResume, CrashExplorationCampaignResumes) {
  // Checkpointing composes with crash branching: the snapshot prefix
  // round-trips crash decisions.
  Explorer::Options opts;
  opts.max_crashes = 1;
  run_kill_and_resume(clean_body(), opts, "crash_serial");
  opts.threads = 4;
  run_kill_and_resume(clean_body(), opts, "crash_par");
}

TEST(CheckpointResume, RecoveryExplorationCampaignResumes) {
  // ...and with crash-and-restart branching: the snapshot prefix
  // round-trips recovery decisions, and the resumed campaign reports the
  // uninterrupted recovered-executions tally.
  Explorer::Options opts;
  opts.max_crashes = 1;
  opts.max_recoveries = 1;
  run_kill_and_resume(clean_body(), opts, "recovery_serial");
  opts.threads = 4;
  run_kill_and_resume(clean_body(), opts, "recovery_par");
}

TEST(CheckpointResume, FinishedSnapshotResumesWithoutRerunning) {
  const std::string cp = temp_path("subc_ckpt_done.jsonl");
  remove_file(cp);
  Explorer::Options opts;
  opts.checkpoint_path = cp;
  std::atomic<std::int64_t> bodies{0};
  const ExecutionBody counted = [&bodies](SchedulePolicy& driver) {
    bodies.fetch_add(1, std::memory_order_relaxed);
    clean_body()(driver);
  };
  const auto first = Explorer::explore(counted, opts);
  EXPECT_TRUE(first.complete);
  const std::int64_t ran = bodies.load();
  EXPECT_GT(ran, 0);

  const auto again = Explorer::resume(counted, cp, opts);
  expect_same_result(again, first, "finished resume");
  EXPECT_EQ(bodies.load(), ran) << "resume of a finished snapshot re-ran";
  remove_file(cp);
}

TEST(CheckpointResume, ResumeRejectsOptionMismatch) {
  const std::string cp = temp_path("subc_ckpt_mismatch.jsonl");
  remove_file(cp);
  Explorer::Options opts;
  opts.checkpoint_path = cp;
  Explorer::explore(clean_body(), opts);

  Explorer::Options other = opts;
  other.max_crashes = 1;
  EXPECT_THROW(Explorer::resume(clean_body(), cp, other), SimError);
  other = opts;
  other.max_recoveries = 1;
  EXPECT_THROW(Explorer::resume(clean_body(), cp, other), SimError);
  other = opts;
  other.max_executions += 1;
  EXPECT_THROW(Explorer::resume(clean_body(), cp, other), SimError);
  other = opts;
  other.reduction = Reduction::kNone;
  EXPECT_THROW(Explorer::resume(clean_body(), cp, other), SimError);
  // Thread count is explicitly allowed to differ.
  other = opts;
  other.threads = 4;
  const auto r = Explorer::resume(clean_body(), cp, other);
  EXPECT_TRUE(r.complete);
  remove_file(cp);
}

TEST(CheckpointResume, DecisionStringsRoundTripIncludingCrashFlags) {
  std::vector<ReplayDriver::Decision> trace;
  trace.push_back(ReplayDriver::Decision{1, 3, 0b111, 0b010, false, false});
  trace.push_back(ReplayDriver::Decision{2, 4, 0, 0, true, false});
  trace.push_back(ReplayDriver::Decision{1, 3, 0b1, 0, false, true});
  trace.push_back(ReplayDriver::Decision{0, 2, 0b11, 0, false, false});
  const std::string encoded = encode_decisions(trace);
  const auto decoded = decode_decisions(encoded);
  ASSERT_EQ(decoded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(decoded[i].chosen, trace[i].chosen) << i;
    EXPECT_EQ(decoded[i].arity, trace[i].arity) << i;
    EXPECT_EQ(decoded[i].enabled, trace[i].enabled) << i;
    EXPECT_EQ(decoded[i].sleep, trace[i].sleep) << i;
    EXPECT_EQ(decoded[i].crash, trace[i].crash) << i;
    EXPECT_EQ(decoded[i].recover, trace[i].recover) << i;
  }
  EXPECT_THROW(decode_decisions("1/2/3"), SimError);
  EXPECT_THROW(decode_decisions("5/2/0/0/0/0"), SimError);  // chosen >= arity
  EXPECT_THROW(decode_decisions("0/2/0/0/7/0"), SimError);  // bad crash flag
  EXPECT_THROW(decode_decisions("0/2/0/0/0/7"), SimError);  // bad recover flag
  EXPECT_THROW(decode_decisions("0/2/0/0/0/0/0"), SimError);  // seven fields
  // Hostile numerals: an empty field, signs, and values overflowing the
  // field's type are rejected rather than read as 0 or wrapped.
  EXPECT_THROW(decode_decisions("/3/0/0/0/0"), SimError);
  EXPECT_THROW(decode_decisions("1/-3/0/0/0/0"), SimError);
  EXPECT_THROW(decode_decisions("0/4294967297/0/0/0/0"), SimError);
  EXPECT_THROW(decode_decisions("2/3/-1/0/0/0"), SimError);

  // Five-field tokens (the pre-recovery format) are rejected, alone and
  // inside an otherwise valid string.
  EXPECT_THROW(decode_decisions("1/3/7/2/1"), SimError);
  EXPECT_THROW(decode_decisions("0/2/0/0/0/0 1/3/7/2/1"), SimError);
}

TEST(CheckpointResume, SnapshotFilesSurviveLoadSaveRoundTrip) {
  const std::string cp = temp_path("subc_ckpt_roundtrip.jsonl");
  ExplorerSnapshot snap;
  snap.max_executions = 1000;
  snap.max_crashes = 1;
  snap.max_recoveries = 1;
  snap.step_quota = 64;
  snap.reduction = true;
  snap.executions = 123;
  snap.pruned = 4;
  snap.reduced = 56;
  snap.crashed = 7;
  snap.recovered = 3;
  snap.stuck = 2;
  snap.stuck_message = "stuck execution: step quota (64) exceeded";
  snap.stuck_trace.push_back(ReplayDriver::Decision{1, 2, 0b11, 0, false});
  snap.prefix.push_back(ReplayDriver::Decision{0, 3, 0b111, 0b100, false});
  snap.prefix.push_back(ReplayDriver::Decision{1, 2, 0, 0, true});
  snap.prefix.push_back(ReplayDriver::Decision{1, 2, 0b1, 0, false, true});
  save_snapshot(cp, snap);
  const ExplorerSnapshot loaded = load_snapshot(cp);
  EXPECT_EQ(loaded.max_executions, snap.max_executions);
  EXPECT_EQ(loaded.max_crashes, snap.max_crashes);
  EXPECT_EQ(loaded.max_recoveries, snap.max_recoveries);
  EXPECT_EQ(loaded.step_quota, snap.step_quota);
  EXPECT_EQ(loaded.reduction, snap.reduction);
  EXPECT_EQ(loaded.executions, snap.executions);
  EXPECT_EQ(loaded.pruned, snap.pruned);
  EXPECT_EQ(loaded.reduced, snap.reduced);
  EXPECT_EQ(loaded.crashed, snap.crashed);
  EXPECT_EQ(loaded.recovered, snap.recovered);
  EXPECT_EQ(loaded.stuck, snap.stuck);
  EXPECT_FALSE(loaded.done);
  EXPECT_EQ(loaded.stuck_message, snap.stuck_message);
  EXPECT_EQ(encode_decisions(loaded.stuck_trace),
            encode_decisions(snap.stuck_trace));
  EXPECT_EQ(encode_decisions(loaded.prefix), encode_decisions(snap.prefix));
  remove_file(cp);
}

TEST(CheckpointResume, LoadRejectsSnapshotsMissingAnyField) {
  // Pre-recovery and pre-stateful snapshots lacked max_recoveries/recovered
  // and stateful/stateful_cuts; every field is required now, so such files
  // (and any other truncated line) are rejected instead of read as zero.
  // So is a present integer field whose value is malformed or out of range.
  const std::string cp = temp_path("subc_ckpt_fields.jsonl");
  ExplorerSnapshot snap;
  snap.max_executions = 10;
  save_snapshot(cp, snap);
  const std::string full = read_file(cp);
  EXPECT_NO_THROW(load_snapshot(cp));
  for (const std::string key :
       {"max_recoveries", "stateful", "recovered", "stateful_cuts", "done"}) {
    const std::string field = "\"" + key + "\":";
    const std::size_t at = full.find(field);
    ASSERT_NE(at, std::string::npos) << key;
    const std::size_t end = full.find_first_of(",}", at);
    std::string cut = full;
    cut.erase(at, end - at + (cut[end] == ',' ? 1 : 0));
    {
      std::ofstream out(cp, std::ios::trunc);
      out << cut;
    }
    EXPECT_THROW(load_snapshot(cp), SimError) << key;
  }
  // Hostile integer fields are rejected too: no digits, trailing garbage,
  // int64 overflow, and values that do not fit the field they load into
  // (max_crashes/max_recoveries are non-negative ints).
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"version", "x"},
           {"max_executions", ""},
           {"max_executions", "99999999999999999999"},
           {"max_crashes", "4294967297"},
           {"max_crashes", "-1"},
           {"max_recoveries", "2147483648"},
           {"step_quota", "7q"},
           {"executions", "+3"},
           {"stateful_cuts", "1e3"},
       }) {
    const std::string field = "\"" + key + "\":";
    const std::size_t at = full.find(field);
    ASSERT_NE(at, std::string::npos) << key;
    const std::size_t begin = at + field.size();
    std::string hostile = full;
    hostile.replace(begin, full.find_first_of(",}", begin) - begin, value);
    {
      std::ofstream out(cp, std::ios::trunc);
      out << hostile;
    }
    EXPECT_THROW(load_snapshot(cp), SimError) << key << "=" << value;
  }
  remove_file(cp);
}

// ---------------------------------------------------------------------------
// Backpressure: a frontier with more units than the fixed work-unit ring
// holds makes the producer drain units inline; the checkpointed search stays
// exact, resumes exactly, and writes no file besides its snapshot.
// ---------------------------------------------------------------------------

TEST(CheckpointResume, FrontierRingPressureDrainsInlineAndStaysExact) {
  // 4 processes x 2 writes: 8!/2^4 = 2520 executions under kNone, each with
  // at least 6 recorded decisions, so a depth-5 frontier holds 600 units and
  // the producer completes no execution while enumerating. The gate makes
  // ring pressure deterministic: a completed execution on any thread but the
  // producer's waits (after its last decision, so traces and results are
  // unaffected) until the producer has completed one itself. The lone
  // worker therefore sits in its first unit while the producer fills the
  // ring, and the only way for the producer to complete an execution before
  // it finishes enumerating is to drain a unit inline once the ring is full.
  struct Gate {
    std::thread::id producer = std::this_thread::get_id();
    std::atomic<bool> drained{false};
    std::atomic<bool> gave_up{false};
    std::atomic<int> probes_after_drain{0};
  };
  const auto body = [](std::shared_ptr<Gate> gate) -> ExecutionBody {
    return [gate = std::move(gate)](SchedulePolicy& driver) {
      Runtime rt;
      RegisterArray<> regs(4, kBottom);
      for (int p = 0; p < 4; ++p) {
        rt.add_process([&, p](Context& ctx) {
          regs[p].write(ctx, 1);
          regs[p].write(ctx, 2);
        });
      }
      try {
        rt.run(driver);
      } catch (...) {
        // No prune, no reduction, no quota: the only cut is the frontier,
        // i.e. the producer still enumerating.
        if (gate && gate->drained.load()) {
          gate->probes_after_drain.fetch_add(1);
        }
        throw;
      }
      if (!gate) {
        return;
      }
      if (std::this_thread::get_id() == gate->producer) {
        gate->drained.store(true);
        return;
      }
      // Bounded wait, after which the gate opens for good, so a regression
      // fails the asserts below instead of tripping the ctest timeout.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (std::chrono::steady_clock::now() < deadline) {
        if (gate->drained.load() || gate->gave_up.load()) {
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      gate->gave_up.store(true);
    };
  };
  Explorer::Options reference;
  reference.reduction = Reduction::kNone;
  const auto serial = Explorer::explore(body(nullptr), reference);
  ASSERT_EQ(serial.executions, 2520);

  const std::string cp = temp_path("subc_ckpt_ring.jsonl");
  const std::string keep = temp_path("subc_ckpt_ring_keep.jsonl");
  remove_file(cp);
  remove_file(keep);
  Explorer::Options tight = reference;
  tight.threads = 2;         // one worker, kept busy by whole subtrees
  tight.frontier_depth = 5;  // 600 units: more than the ring holds
  tight.checkpoint_path = cp;
  tight.checkpoint_every = 16;
  KillPoint killer(cp, keep, 1200);  // keeps a mid-run snapshot aside
  tight.observer = &killer;
  const auto gate = std::make_shared<Gate>();
  const auto pressured = Explorer::explore(body(gate), tight);
  expect_same_result(pressured, serial, "ring pressure");
  EXPECT_FALSE(gate->gave_up.load());
  EXPECT_GT(gate->probes_after_drain.load(), 0)
      << "the producer never drained a unit while enumerating";
  EXPECT_FALSE(file_exists(cp + ".spill"));

  tight.observer = nullptr;
  expect_same_result(Explorer::resume(body(nullptr), cp, tight), serial,
                     "ring pressure, final snapshot");
  ASSERT_TRUE(file_exists(keep));
  EXPECT_FALSE(load_snapshot(keep).done);
  expect_same_result(Explorer::resume(body(std::make_shared<Gate>()), keep,
                                      tight),
                     serial, "ring pressure, mid-run snapshot");
  EXPECT_FALSE(file_exists(cp + ".spill"));
  remove_file(cp);
  remove_file(keep);
}

}  // namespace
}  // namespace subc
