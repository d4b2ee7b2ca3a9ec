// Crash-recovery exploration (Explorer::Options::max_recoveries), the
// durability axis of the object zoo (Durability::kDurable/kVolatile), and
// the recoverable-consensus machine-check: one durable sticky register
// solves recoverable consensus at n = 2 on both engines, the volatile
// variant is convicted with a canonical, replayable counterexample
// (docs/adversaries.md "Crash-recovery exploration").
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "subc/algorithms/stepped_bodies.hpp"
#include "subc/checking/trace_jsonl.hpp"
#include "subc/objects/register.hpp"
#include "subc/objects/sticky_register.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/observer.hpp"
#include "subc/runtime/policy.hpp"
#include "subc/runtime/runtime.hpp"

namespace subc {
namespace {

// ---------------------------------------------------------------------------
// Recovery branching on a hand-countable world.
// ---------------------------------------------------------------------------

TEST(RecoveryExploration, RecoveryBranchingOnTinyWorldIsExhaustive) {
  // 2 processes x 1 write each, f = 1, r = 1. Crash-free schedules still
  // count 2; every other execution lands a crash, and a subset of those
  // additionally restarts the victim — who then finishes as a second
  // incarnation. The (states, incarnations) outcomes pin all three worlds:
  // untouched, crash-stop, and crash-and-restart.
  using Outcome = std::pair<std::vector<ProcState>, std::vector<std::uint32_t>>;
  std::set<Outcome> outcomes;
  Explorer::Options opts;
  opts.reduction = Reduction::kNone;
  opts.max_crashes = 1;
  opts.max_recoveries = 1;
  const auto result = Explorer::explore(
      [&](SchedulePolicy& driver) {
        Runtime rt;
        RegisterArray<> regs(2, kBottom);
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
        }
        const auto run = rt.run(driver);
        outcomes.insert(
            {run.states, {rt.incarnation_of(0), rt.incarnation_of(1)}});
      },
      opts);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.crashed_executions, 0);
  EXPECT_GT(result.recovered_executions, 0);
  // A recovery presupposes a crash, so the recovered executions are a strict
  // subset of the crashed ones (the crash-stop continuations remain).
  EXPECT_LT(result.recovered_executions, result.crashed_executions);
  EXPECT_EQ(result.executions, 2 + result.crashed_executions);
  using PS = ProcState;
  // Crash-free, crash-stop, and crash-and-restart outcomes all reachable.
  EXPECT_TRUE(outcomes.contains({{PS::kDone, PS::kDone}, {0, 0}}));
  EXPECT_TRUE(outcomes.contains({{PS::kCrashed, PS::kDone}, {0, 0}}));
  EXPECT_TRUE(outcomes.contains({{PS::kDone, PS::kCrashed}, {0, 0}}));
  EXPECT_TRUE(outcomes.contains({{PS::kDone, PS::kDone}, {1, 0}}));
  EXPECT_TRUE(outcomes.contains({{PS::kDone, PS::kDone}, {0, 1}}));
}

TEST(RecoveryExploration, RecoveryBudgetZeroIsTheBaseline) {
  // max_recoveries = 0 (the default) keeps crash exploration exactly the
  // crash-stop search: no crashed execution restarts, and executions still
  // split into the crash-free base count plus the crashed ones.
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> regs(2, kBottom);
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&, p](Context& ctx) {
        regs[p].write(ctx, p);
        regs[(p + 1) % 2].read(ctx);
      });
    }
    rt.run(driver);
  };
  Explorer::Options plain;
  plain.reduction = Reduction::kNone;
  Explorer::Options crash_only = plain;
  crash_only.max_crashes = 1;
  const auto base = Explorer::explore(body, plain);
  const auto a = Explorer::explore(body, crash_only);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(a.complete);
  EXPECT_GT(a.crashed_executions, 0);
  EXPECT_EQ(a.recovered_executions, 0);
  EXPECT_EQ(a.executions, base.executions + a.crashed_executions);
}

TEST(RecoveryExploration, RecoveriesNeverFireWithoutCrashes) {
  // A recovery budget without a crash budget has nothing to restart: the
  // search is the plain one, bit for bit.
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> regs(2, kBottom);
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
    }
    rt.run(driver);
  };
  Explorer::Options plain;
  plain.reduction = Reduction::kNone;
  Explorer::Options idle = plain;
  idle.max_recoveries = 2;
  const auto a = Explorer::explore(body, plain);
  const auto b = Explorer::explore(body, idle);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(b.crashed_executions, 0);
  EXPECT_EQ(b.recovered_executions, 0);
}

TEST(RecoveryExploration, NegativeMaxRecoveriesRejected) {
  Explorer::Options opts;
  opts.max_recoveries = -1;
  try {
    Explorer::explore([](SchedulePolicy&) {}, opts);
    FAIL() << "negative max_recoveries was accepted";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("max_recoveries"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// The recoverable-consensus machine-check. One sticky register, two
// proposers, each deciding what stuck. Durable: solves recoverable
// consensus (every crash/restart placement agrees). Volatile: convicted —
// a crash wipes the stuck value, a recovered incarnation re-sticks into the
// wiped register and decides against a survivor's earlier decision.
// ---------------------------------------------------------------------------

void require_consensus(const Runtime::RunResult& run) {
  Value decided = kBottom;
  for (std::size_t p = 0; p < run.decisions.size(); ++p) {
    const Value d = run.decisions[p];
    if (d == kBottom) {
      continue;  // crashed-for-good proposers decide nothing
    }
    if (d != 100 && d != 101) {
      throw SpecViolation("validity: process " + std::to_string(p) +
                          " decided unproposed value " + to_string(d));
    }
    if (decided == kBottom) {
      decided = d;
    } else if (d != decided) {
      throw SpecViolation("agreement: decisions " + to_string(decided) +
                          " and " + to_string(d));
    }
  }
}

ExecutionBody sticky_consensus_body(Durability durability, Engine engine) {
  return [durability, engine](SchedulePolicy& driver) {
    Runtime rt;
    StickyRegister sticky(durability);
    if (engine == Engine::kFiber) {
      for (int p = 0; p < 2; ++p) {
        rt.add_process([&sticky, p](Context& ctx) {
          ctx.decide(consensus_from_sticky(ctx, sticky, 100 + p));
        });
      }
    } else {
      for (int p = 0; p < 2; ++p) {
        rt.add_stepped(SteppedStickyConsensus{&sticky, 100 + p});
      }
    }
    const auto run = rt.run(driver);
    require_consensus(run);
  };
}

TEST(RecoverableConsensus, DurableStickySolvesRecoverableConsensus) {
  // ∀ schedules x ≤1 crash x ≤1 restart: agreement + validity hold, on both
  // engines, with bit-identical tallies across engines and thread counts.
  Explorer::Result reference[2];  // per reduction
  bool have_reference[2] = {false, false};
  for (const Engine engine : {Engine::kFiber, Engine::kStepped}) {
    for (const Reduction reduction :
         {Reduction::kNone, Reduction::kSleepSets}) {
      for (const int threads : {1, 4}) {
        Explorer::Options opts;
        opts.reduction = reduction;
        opts.threads = threads;
        opts.max_crashes = 1;
        opts.max_recoveries = 1;
        const auto result =
            Explorer::explore(sticky_consensus_body(Durability::kDurable,
                                                    engine),
                              opts);
        const std::string tag =
            std::string(engine == Engine::kFiber ? "fiber" : "stepped") +
            " reduction=" + std::to_string(static_cast<int>(reduction)) +
            " threads=" + std::to_string(threads);
        EXPECT_TRUE(result.ok()) << tag << ": " << *result.violation;
        EXPECT_TRUE(result.complete) << tag;
        EXPECT_GT(result.crashed_executions, 0) << tag;
        EXPECT_GT(result.recovered_executions, 0) << tag;
        auto& ref = reference[static_cast<int>(reduction)];
        if (!have_reference[static_cast<int>(reduction)]) {
          ref = result;
          have_reference[static_cast<int>(reduction)] = true;
        } else {
          EXPECT_EQ(result.executions, ref.executions) << tag;
          EXPECT_EQ(result.crashed_executions, ref.crashed_executions) << tag;
          EXPECT_EQ(result.recovered_executions, ref.recovered_executions)
              << tag;
          EXPECT_EQ(result.reduced_subtrees, ref.reduced_subtrees) << tag;
        }
      }
    }
  }
}

TEST(RecoverableConsensus, VolatileStickyConvictedWithCanonicalTrace) {
  // The volatile variant loses the stuck value at the crash; some
  // crash/restart placement then makes two incarnations decide differently.
  // The conviction (message + witness trace + tallies) is bit-identical
  // across engines and thread counts per reduction, the witness contains a
  // recovery decision (marker `r`), and it replays deterministically.
  for (const Reduction reduction : {Reduction::kNone, Reduction::kSleepSets}) {
    std::optional<std::string> first_violation;
    std::string first_trace;
    std::int64_t first_executions = -1;
    for (const Engine engine : {Engine::kFiber, Engine::kStepped}) {
      for (const int threads : {1, 4}) {
        Explorer::Options opts;
        opts.reduction = reduction;
        opts.threads = threads;
        opts.max_crashes = 1;
        opts.max_recoveries = 1;
        opts.shrink_violations = true;
        const auto result = Explorer::explore(
            sticky_consensus_body(Durability::kVolatile, engine), opts);
        const std::string tag =
            std::string(engine == Engine::kFiber ? "fiber" : "stepped") +
            " reduction=" + std::to_string(static_cast<int>(reduction)) +
            " threads=" + std::to_string(threads);
        ASSERT_TRUE(result.violation.has_value()) << tag;
        const std::string rendered = format_trace(result.violating_trace);
        EXPECT_NE(rendered.find('r'), std::string::npos)
            << tag << ": conviction without a recovery decision: " << rendered;
        EXPECT_NE(rendered.find('x'), std::string::npos) << tag;
        if (!first_violation.has_value()) {
          first_violation = result.violation;
          first_trace = rendered;
          first_executions = result.executions;
        } else {
          EXPECT_EQ(result.violation, first_violation) << tag;
          EXPECT_EQ(rendered, first_trace) << tag;
          EXPECT_EQ(result.executions, first_executions) << tag;
        }
        // The shrunk witness replays on the matching engine's body.
        EXPECT_THROW(
            Explorer::replay(sticky_consensus_body(Durability::kVolatile,
                                                   engine),
                             result.violating_trace),
            std::exception)
            << tag;
      }
    }
  }
}

TEST(RecoverableConsensus, StatefulExplorationKeepsRecoveryVerdicts) {
  // Incarnation-salted fingerprints: "p crashed" and "p restarted once"
  // never alias, so stateful cuts stay sound across the recovery axis —
  // same verdicts as the plain search on both durability variants.
  for (const Durability durability :
       {Durability::kDurable, Durability::kVolatile}) {
    Explorer::Options opts;
    opts.max_crashes = 1;
    opts.max_recoveries = 1;
    opts.stateful = true;
    const auto result = Explorer::explore(
        sticky_consensus_body(durability, Engine::kFiber), opts);
    if (durability == Durability::kDurable) {
      EXPECT_TRUE(result.ok()) << *result.violation;
      EXPECT_TRUE(result.complete);
    } else {
      ASSERT_TRUE(result.violation.has_value());
      EXPECT_THROW(
          Explorer::replay(sticky_consensus_body(durability, Engine::kFiber),
                           result.violating_trace),
          std::exception);
    }
  }
}

// ---------------------------------------------------------------------------
// Durable vs volatile semantics under a deterministic crash/restart plan.
// ---------------------------------------------------------------------------

TEST(Durability, StickyValueSurvivesCrashAndRestartWhenDurable) {
  // p0 sticks 7 and is crashed right after; p1 sticks 9 against whatever
  // survived; p0 restarts and re-sticks. Durable: 7 sticks forever — both
  // decide 7. Volatile: the crash wipes the register, 9 sticks — both
  // decide 9. Either way the recovered incarnation re-decides idempotently.
  for (const Durability durability :
       {Durability::kDurable, Durability::kVolatile}) {
    RoundRobinDriver inner;
    CrashAdversary adversary(inner,
                             {CrashAdversary::CrashPoint{0, 1}});
    adversary.set_recovery_plan({CrashAdversary::RecoveryPoint{0, 2}});
    Runtime rt;
    StickyRegister sticky(durability);
    Register<> scratch(kBottom);
    rt.add_process([&](Context& ctx) {
      const Value got = sticky.stick(ctx, 7);
      scratch.write(ctx, got);  // window: crash lands between stick and here
      ctx.decide(got);
    });
    rt.add_process([&](Context& ctx) { ctx.decide(sticky.stick(ctx, 9)); });
    const auto run = rt.run(adversary);
    const Value expected = durability == Durability::kDurable ? 7 : 9;
    EXPECT_EQ(run.states[0], ProcState::kDone);
    EXPECT_EQ(run.states[1], ProcState::kDone);
    EXPECT_EQ(run.decisions[0], expected);
    EXPECT_EQ(run.decisions[1], expected);
    EXPECT_EQ(sticky.peek(), expected);
    EXPECT_EQ(rt.incarnation_of(0), 1u);
    EXPECT_EQ(rt.incarnation_of(1), 0u);
    EXPECT_EQ(adversary.crashes_injected(), 1);
    EXPECT_EQ(adversary.recoveries_injected(), 1);
  }
}

TEST(Durability, VolatileRegisterResetsToInitialOnAnyCrash) {
  // Any crash event fires the volatile-reset hooks — including a crash of a
  // process that never touched the register. The durable twin keeps 5.
  for (const Durability durability :
       {Durability::kDurable, Durability::kVolatile}) {
    RoundRobinDriver inner;
    CrashAdversary adversary(inner, {CrashAdversary::CrashPoint{1, 1}});
    Runtime rt;
    Register<> reg(kBottom, durability);
    Register<> other(kBottom);
    rt.add_process([&](Context& ctx) { reg.write(ctx, 5); });
    rt.add_process([&](Context& ctx) {
      other.write(ctx, 1);
      other.write(ctx, 2);  // second step: the crash window
    });
    const auto run = rt.run(adversary);
    EXPECT_EQ(run.states[1], ProcState::kCrashed);
    EXPECT_EQ(reg.peek(),
              durability == Durability::kDurable ? Value{5} : kBottom);
    EXPECT_EQ(other.peek(), 1);  // durable objects never reset
  }
}

TEST(Durability, VolatileOneShotWrnForgetsUsedIndexesAcrossRestart) {
  // A recovered incarnation re-invokes its 1sWRN index. Durable: the used
  // bit survives, the re-invocation is illegal and hangs the incarnation.
  // Volatile: the crash wiped slots and used bits, so the re-invocation is
  // legal and the process finishes.
  for (const Durability durability :
       {Durability::kDurable, Durability::kVolatile}) {
    RoundRobinDriver inner;
    CrashAdversary adversary(inner, {CrashAdversary::CrashPoint{0, 1}});
    adversary.set_recovery_plan({CrashAdversary::RecoveryPoint{0, 2}});
    Runtime rt;
    OneShotWrnObject wrn(3, durability);
    Register<> scratch(kBottom);
    rt.add_process([&](Context& ctx) {
      const Value got = wrn.wrn(ctx, 0, 5);
      scratch.write(ctx, got);  // window: crash lands here, before done
    });
    rt.add_process([&](Context& ctx) { scratch.write(ctx, 1); });
    const auto run = rt.run(adversary);
    EXPECT_EQ(rt.incarnation_of(0), 1u);
    EXPECT_EQ(run.states[0], durability == Durability::kDurable
                                 ? ProcState::kHung
                                 : ProcState::kDone);
  }
}

TEST(Durability, RecoveredIncarnationRedecidesIdempotently) {
  // Same value: dropped. Different value (volatile sticky wiped between the
  // incarnations): a real disagreement, diagnosed by the kernel.
  RoundRobinDriver inner;
  CrashAdversary adversary(inner, {CrashAdversary::CrashPoint{0, 1}});
  adversary.set_recovery_plan({CrashAdversary::RecoveryPoint{0, 2}});
  const auto violation = run_one(
      [](SchedulePolicy& driver) {
        Runtime rt;
        StickyRegister sticky(Durability::kVolatile);
        Register<> scratch(kBottom);
        rt.add_process([&](Context& ctx) {
          const Value got = sticky.stick(ctx, 100);
          ctx.decide(got);          // first incarnation decides 100...
          scratch.write(ctx, got);  // ...then crashes in this window
        });
        rt.add_process([&](Context& ctx) {
          ctx.decide(sticky.stick(ctx, 101));
        });
        rt.run(driver);
      },
      adversary);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("re-decided differently"), std::string::npos)
      << *violation;

  // The idempotent twin: a durable register hands the recovered incarnation
  // its original decision back — no violation.
  RoundRobinDriver inner2;
  CrashAdversary adversary2(inner2, {CrashAdversary::CrashPoint{0, 1}});
  adversary2.set_recovery_plan({CrashAdversary::RecoveryPoint{0, 2}});
  const auto clean = run_one(
      [](SchedulePolicy& driver) {
        Runtime rt;
        StickyRegister sticky(Durability::kDurable);
        Register<> scratch(kBottom);
        rt.add_process([&](Context& ctx) {
          const Value got = sticky.stick(ctx, 100);
          ctx.decide(got);
          scratch.write(ctx, got);
        });
        rt.add_process([&](Context& ctx) {
          ctx.decide(sticky.stick(ctx, 101));
        });
        const auto run = rt.run(driver);
        if (run.decisions[0] != 100 || run.decisions[1] != 100) {
          throw SpecViolation("durable sticky lost the first decision");
        }
      },
      adversary2);
  EXPECT_FALSE(clean.has_value()) << *clean;
}

// ---------------------------------------------------------------------------
// Recovery decisions replay, shrink, and round-trip through trace_jsonl.
// ---------------------------------------------------------------------------

TEST(RecoveryExploration, RecoveryDecisionsReplayAndShrink) {
  Explorer::Options opts;
  opts.reduction = Reduction::kNone;
  opts.max_crashes = 1;
  opts.max_recoveries = 1;
  const auto body = sticky_consensus_body(Durability::kVolatile,
                                          Engine::kFiber);
  const auto result = Explorer::explore(body, opts);
  ASSERT_TRUE(result.violation.has_value());
  // The raw witness replays...
  EXPECT_THROW(Explorer::replay(body, result.violating_trace), std::exception);
  // ...and shrinks to a locally-minimal trace that still carries the
  // recovery decision and still reproduces.
  const auto shrunk = Explorer::shrink(body, result.violating_trace);
  EXPECT_LE(shrunk.size(), result.violating_trace.size());
  const std::string rendered = format_trace(shrunk);
  EXPECT_NE(rendered.find('r'), std::string::npos) << rendered;
  EXPECT_THROW(Explorer::replay(body, shrunk), std::exception);
}

TEST(RecoveryExploration, RecoverEventsRoundTripThroughJsonl) {
  std::ostringstream sink;
  JsonlTraceWriter writer(sink);
  RoundRobinDriver inner;
  CrashAdversary adversary(inner, {CrashAdversary::CrashPoint{0, 1}});
  adversary.set_recovery_plan({CrashAdversary::RecoveryPoint{0, 2}});
  const auto violation = run_one(
      [](SchedulePolicy& driver) {
        Runtime rt;
        StickyRegister sticky;
        Register<> scratch(kBottom);
        rt.add_process([&](Context& ctx) {
          const Value got = sticky.stick(ctx, 7);
          scratch.write(ctx, got);
          ctx.decide(got);
        });
        rt.add_process([&](Context& ctx) { scratch.write(ctx, 1); });
        rt.run(driver);
      },
      adversary, &writer);
  EXPECT_FALSE(violation.has_value());

  const ParsedTrace parsed = parse_trace_jsonl(sink.str());
  EXPECT_EQ(parsed.crashes, 1);
  ASSERT_EQ(parsed.recover_events.size(), 1u);
  EXPECT_EQ(parsed.recoveries, 1);
  EXPECT_EQ(parsed.recover_events[0].pid, 0);
  // The restart fired at-or-after the crash's global step.
  ASSERT_EQ(parsed.crash_events.size(), 1u);
  EXPECT_GE(parsed.recover_events[0].step, parsed.crash_events[0].step);
}

TEST(RecoveryExploration, AccessCountersTallyRecoveries) {
  AccessCounters counters;
  RoundRobinDriver inner;
  CrashAdversary adversary(inner, {CrashAdversary::CrashPoint{0, 1}});
  adversary.set_recovery_plan({CrashAdversary::RecoveryPoint{0, 2}});
  const auto violation = run_one(
      [](SchedulePolicy& driver) {
        Runtime rt;
        StickyRegister sticky;
        Register<> scratch(kBottom);
        rt.add_process([&](Context& ctx) {
          const Value got = sticky.stick(ctx, 7);
          scratch.write(ctx, got);
          ctx.decide(got);
        });
        rt.add_process([&](Context& ctx) { scratch.write(ctx, 1); });
        rt.run(driver);
      },
      adversary, &counters);
  EXPECT_FALSE(violation.has_value());
  EXPECT_EQ(counters.crashes(), 1);
  EXPECT_EQ(counters.recoveries(), 1);
}

TEST(RecoveryExploration, RecordingPolicyJournalsRecoveries) {
  RoundRobinDriver inner;
  CrashAdversary adversary(inner, {CrashAdversary::CrashPoint{0, 1}});
  adversary.set_recovery_plan({CrashAdversary::RecoveryPoint{0, 2}});
  RecordingPolicy recorder(adversary);
  const auto violation = run_one(
      [](SchedulePolicy& driver) {
        Runtime rt;
        StickyRegister sticky;
        Register<> scratch(kBottom);
        rt.add_process([&](Context& ctx) {
          const Value got = sticky.stick(ctx, 7);
          scratch.write(ctx, got);
          ctx.decide(got);
        });
        rt.add_process([&](Context& ctx) { scratch.write(ctx, 1); });
        rt.run(driver);
      },
      recorder);
  EXPECT_FALSE(violation.has_value());
  const std::string journal = recorder.format_journal();
  EXPECT_NE(journal.find("x0"), std::string::npos) << journal;
  EXPECT_NE(journal.find("r0"), std::string::npos) << journal;
}

// ---------------------------------------------------------------------------
// CrashAdversary restart-model validation (policy.hpp satellite).
// ---------------------------------------------------------------------------

std::string recovery_plan_error(
    std::vector<CrashAdversary::RecoveryPoint> plan) {
  RoundRobinDriver inner;
  CrashAdversary adversary(inner, std::vector<CrashAdversary::CrashPoint>{});
  try {
    adversary.set_recovery_plan(std::move(plan));
  } catch (const SimError& e) {
    return e.what();
  }
  return {};
}

TEST(RecoveryPlanValidation, RejectsDuplicateVictimNamingTheEntry) {
  const std::string msg = recovery_plan_error({{0, 1}, {2, 1}, {0, 3}});
  EXPECT_NE(msg.find("duplicate victim 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("recovery plan entry 2"), std::string::npos) << msg;
}

TEST(RecoveryPlanValidation, RejectsNegativeAfterStepsNamingTheEntry) {
  const std::string msg = recovery_plan_error({{1, 2}, {3, -4}});
  EXPECT_NE(msg.find("recovery plan entry 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("negative after_steps -4"), std::string::npos) << msg;
}

TEST(RecoveryPlanValidation, RejectsOutOfRangeVictimNamingTheEntry) {
  const std::string msg = recovery_plan_error({{64, 1}});
  EXPECT_NE(msg.find("recovery plan entry 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("victim 64"), std::string::npos) << msg;
  EXPECT_FALSE(recovery_plan_error({{-1, 1}}).empty());
}

TEST(RecoveryPlanValidation, RandomRecoveryKnobsValidated) {
  RoundRobinDriver inner;
  CrashAdversary adversary(inner, /*seed=*/7, /*f=*/1, /*crash_prob=*/0.5);
  EXPECT_THROW(adversary.set_random_recovery(7, -1, 0.5), SimError);
  EXPECT_THROW(adversary.set_random_recovery(7, 1, -0.1), SimError);
  EXPECT_THROW(adversary.set_random_recovery(7, 1, 1.5), SimError);
  adversary.set_random_recovery(7, 1, 0.5);  // valid knobs accepted
  EXPECT_TRUE(adversary.wants_recovery());
}

TEST(RecoveryPlanValidation, SeededRandomRecoveryIsDeterministic) {
  // Same seed => bit-identical decision journal, recoveries included.
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    StickyRegister sticky;
    Register<> scratch(kBottom);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        const Value got = sticky.stick(ctx, 100 + p);
        scratch.write(ctx, got);
        ctx.decide(got);
      });
    }
    rt.run(driver);
  };
  std::string journals[2];
  for (int round = 0; round < 2; ++round) {
    RandomDriver inner(11);
    CrashAdversary adversary(inner, /*seed=*/42, /*f=*/2, /*crash_prob=*/0.3);
    adversary.set_random_recovery(/*seed=*/43, /*max_recoveries=*/2,
                                  /*recover_prob=*/0.4);
    RecordingPolicy recorder(adversary);
    const auto violation = run_one(body, recorder);
    EXPECT_FALSE(violation.has_value());
    journals[round] = recorder.format_journal();
  }
  EXPECT_EQ(journals[0], journals[1]);
}

}  // namespace
}  // namespace subc
