// TraceObserver layer: event streams from the kernel, observer composition,
// access counters, history mirroring, JSONL export/import, and the run_one
// funnel's thread-default installation.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <sstream>

#include "subc/checking/trace_jsonl.hpp"
#include "subc/checking/trace_viz.hpp"
#include "subc/objects/register.hpp"
#include "subc/objects/set_consensus_object.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/history.hpp"
#include "subc/runtime/observer.hpp"
#include "subc/runtime/policy.hpp"

namespace subc {
namespace {

// Collects raw events for structural assertions.
struct EventLog final : TraceObserver {
  std::vector<std::string> lines;

  void on_run_begin(int num_processes) override {
    lines.push_back("begin " + std::to_string(num_processes));
  }
  void on_step(const StepEvent& e) override {
    lines.push_back("step p" + std::to_string(e.pid) + " @" +
                    std::to_string(e.step));
  }
  void on_choose(int pid, std::uint32_t arity, std::uint32_t chosen) override {
    lines.push_back("choose p" + std::to_string(pid) + " " +
                    std::to_string(chosen) + "/" + std::to_string(arity));
  }
  void on_crash(int pid, std::int64_t step) override {
    lines.push_back("crash p" + std::to_string(pid) + " @" +
                    std::to_string(step));
  }
  void on_violation(std::string_view message) override {
    lines.push_back("violation " + std::string(message));
  }
  void on_run_end(std::int64_t total_steps, bool quiescent) override {
    lines.push_back("end " + std::to_string(total_steps) +
                    (quiescent ? " quiescent" : " stuck"));
  }
};

TEST(Observer, KernelEmitsBeginStepsEnd) {
  EventLog log;
  Runtime rt;
  rt.set_observer(&log);
  RegisterArray<> regs(2, kBottom);
  for (int p = 0; p < 2; ++p) {
    rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
  }
  RoundRobinDriver rr;
  const auto result = rt.run(rr);
  ASSERT_FALSE(log.lines.empty());
  EXPECT_EQ(log.lines.front(), "begin 2");
  EXPECT_EQ(log.lines.back(),
            "end " + std::to_string(result.total_steps) + " quiescent");
  std::int64_t steps = 0;
  for (const auto& l : log.lines) {
    if (l.rfind("step ", 0) == 0) {
      ++steps;
    }
  }
  EXPECT_EQ(steps, result.total_steps);
}

TEST(Observer, ChooseAndCrashEventsArrive) {
  EventLog log;
  Runtime rt;
  rt.set_observer(&log);
  SetConsensusObject onk(3, 2);  // nondeterministic: propose() calls choose()
  rt.add_process([&](Context& ctx) { onk.propose(ctx, 5); });
  rt.add_process([&](Context& ctx) { onk.propose(ctx, 6); });
  RoundRobinDriver rr;
  rt.crash(1);  // before run: pid 1 never steps
  rt.run(rr);
  bool saw_choose = false;
  bool saw_crash = false;
  for (const auto& l : log.lines) {
    saw_choose = saw_choose || l.rfind("choose ", 0) == 0;
    saw_crash = saw_crash || l == "crash p1 @0";
  }
  EXPECT_TRUE(saw_choose);
  EXPECT_TRUE(saw_crash);
}

TEST(Observer, ChainFansOutInOrder) {
  EventLog a;
  EventLog b;
  ObserverChain chain;
  chain.add(a);
  chain.add(b);
  Runtime rt;
  rt.set_observer(&chain);
  RegisterArray<> regs(2, kBottom);
  for (int p = 0; p < 2; ++p) {
    rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
  }
  RoundRobinDriver rr;
  rt.run(rr);
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_FALSE(a.lines.empty());
}

TEST(Observer, AccessCountersTally) {
  AccessCounters counters;
  Runtime rt;
  rt.set_observer(&counters);
  RegisterArray<> regs(2, kBottom);
  std::array<Value, 2> seen{};
  for (int p = 0; p < 2; ++p) {
    rt.add_process([&, p](Context& ctx) {
      regs[p].write(ctx, 10 + p);
      seen[static_cast<std::size_t>(p)] = regs[(p + 1) % 2].read(ctx);
    });
  }
  RoundRobinDriver rr;
  const auto result = rt.run(rr);
  EXPECT_EQ(counters.runs(), 1);
  EXPECT_EQ(counters.steps(), result.total_steps);
  EXPECT_EQ(counters.steps_of_kind(AccessKind::kWrite), 2);
  EXPECT_EQ(counters.steps_of_kind(AccessKind::kRead), 2);
  EXPECT_EQ(counters.objects_touched(), 2);
  EXPECT_EQ(counters.steps_on_object(1) + counters.steps_on_object(2),
            counters.steps());
  EXPECT_EQ(counters.crashes(), 0);
  EXPECT_EQ(counters.violations(), 0);
}

TEST(Observer, HistorySinkStreamsAndRecorderMirrors) {
  HistoryRecorder recorder;
  History source;
  source.set_sink(&recorder);
  const auto h0 = source.invoke(0, {1, 100});
  const auto h1 = source.invoke(1, {2, 200});
  source.respond(h1, {7});
  source.respond(h0, {});
  EXPECT_EQ(recorder.history().dump(), source.dump());
  EXPECT_EQ(recorder.history().completed(), 2u);
  recorder.reset();
  EXPECT_TRUE(recorder.history().entries().empty());
}

TEST(Observer, RunOneInstallsThreadDefaultForBodyConstructedRuntimes) {
  // The body builds its own Runtime; the observer still sees its events
  // because run_one installs it as the thread default.
  AccessCounters counters;
  RoundRobinDriver rr;
  const auto violation = run_one(
      [](SchedulePolicy& driver) {
        Runtime rt;
        RegisterArray<> regs(2, kBottom);
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
        }
        rt.run(driver);
      },
      rr, &counters);
  EXPECT_FALSE(violation.has_value());
  EXPECT_EQ(counters.runs(), 1);
  EXPECT_GT(counters.steps(), 0);
}

TEST(Observer, RunOneReportsViolationsToObserverAndCaller) {
  ViolationCollector collector;
  RoundRobinDriver rr;
  const auto violation = run_one(
      [](SchedulePolicy&) { throw SpecViolation("seeded failure"); }, rr,
      &collector);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(*violation, "seeded failure");
  EXPECT_EQ(collector.count(), 1);
  EXPECT_EQ(collector.messages().front(), "seeded failure");
}

TEST(Observer, ScopedObserverNestsAndRestores) {
  EventLog outer;
  EventLog inner;
  EXPECT_EQ(thread_default_observer(), nullptr);
  {
    ScopedObserver a(&outer);
    EXPECT_EQ(thread_default_observer(), &outer);
    {
      ScopedObserver b(&inner);
      EXPECT_EQ(thread_default_observer(), &inner);
      ScopedObserver mask(nullptr);
      EXPECT_EQ(thread_default_observer(), nullptr);
    }
    EXPECT_EQ(thread_default_observer(), &outer);
  }
  EXPECT_EQ(thread_default_observer(), nullptr);
}

// The observer must be a pure sink: attaching one to an exhaustive search
// changes none of the result fields.
TEST(Observer, ExplorerResultsIdenticalWithAndWithoutObserver) {
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> regs(3, kBottom);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
    }
    rt.run(driver);
  };
  for (const auto reduction : {Reduction::kNone, Reduction::kSleepSets}) {
    for (const int threads : {1, 4}) {
      Explorer::Options plain;
      plain.reduction = reduction;
      plain.threads = threads;
      const auto base = Explorer::explore(body, plain);

      AccessCounters counters;
      Explorer::Options observed = plain;
      observed.observer = &counters;
      const auto with = Explorer::explore(body, observed);

      EXPECT_EQ(base.executions, with.executions);
      EXPECT_EQ(base.reduced_subtrees, with.reduced_subtrees);
      EXPECT_EQ(base.complete, with.complete);
      EXPECT_EQ(base.ok(), with.ok());
      // Every completed execution begins a run; cut attempts (sleep-set
      // skips, frontier cuts) begin runs too, so >= in general and == only
      // for the serial unreduced search.
      EXPECT_GE(counters.runs(), with.executions);
      if (reduction == Reduction::kNone && threads == 1) {
        EXPECT_EQ(counters.runs(), with.executions);
      }
      EXPECT_EQ(counters.violations(), 0);
    }
  }
}

TEST(ProgressTicker, CountsExecutionsAndEmitsLines) {
  std::ostringstream sink;
  // Period 0: every completed run crosses the tick threshold.
  ProgressTicker ticker(/*period_seconds=*/0.0, &sink);
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> regs(3, kBottom);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
    }
    rt.run(driver);
  };
  Explorer::Options opts;
  opts.reduction = Reduction::kNone;
  opts.observer = &ticker;
  const auto result = Explorer::explore(body, opts);
  ASSERT_TRUE(result.ok());

  const auto snap = ticker.snapshot();
  EXPECT_EQ(snap.executions, result.executions);
  EXPECT_EQ(snap.violations, 0);
  EXPECT_EQ(snap.reduced, 0);  // reduction disabled
  EXPECT_DOUBLE_EQ(snap.reduction_factor, 1.0);
  EXPECT_GT(snap.executions_per_sec, 0.0);

  // One line per completed execution at period 0, each carrying the tallies.
  const std::string out = sink.str();
  EXPECT_NE(out.find("[progress] execs="), std::string::npos);
  EXPECT_NE(out.find("violations=0"), std::string::npos);
}

TEST(ProgressTicker, TracksReductionSkips) {
  ProgressTicker ticker(/*period_seconds=*/1e9, nullptr);  // never prints
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> regs(3, kBottom);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
    }
    rt.run(driver);
  };
  Explorer::Options opts;
  opts.reduction = Reduction::kSleepSets;
  opts.observer = &ticker;
  const auto result = Explorer::explore(body, opts);
  ASSERT_TRUE(result.ok());

  const auto snap = ticker.snapshot();
  EXPECT_EQ(snap.executions, result.executions);
  EXPECT_EQ(snap.reduced, result.reduced_subtrees);
  EXPECT_GT(snap.reduced, 0);
  EXPECT_GT(snap.reduction_factor, 1.0);
}

TEST(ProgressTicker, CountsViolationsAndStaysVerdictNeutral) {
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> regs(2, kBottom);
    rt.add_process([&](Context& ctx) { regs[0].write(ctx, 1); });
    rt.add_process([&](Context& ctx) {
      if (regs[0].read(ctx) == Value(1)) {
        throw SpecViolation("saw the write");
      }
    });
    rt.run(driver);
  };
  for (const int threads : {1, 4}) {
    Explorer::Options plain;
    plain.threads = threads;
    const auto base = Explorer::explore(body, plain);

    ProgressTicker ticker(/*period_seconds=*/1e9, nullptr);
    Explorer::Options observed = plain;
    observed.observer = &ticker;
    const auto with = Explorer::explore(body, observed);

    // Verdict-neutral: attaching the ticker changes nothing.
    EXPECT_EQ(base.executions, with.executions);
    EXPECT_EQ(base.ok(), with.ok());
    EXPECT_EQ(base.violation.has_value(), with.violation.has_value());

    ASSERT_FALSE(with.ok());
    EXPECT_GE(ticker.snapshot().violations, 1);
    if (threads == 1) {
      EXPECT_EQ(ticker.snapshot().executions, with.executions);
    } else {
      // Parallel workers may complete runs past the canonical winner before
      // cancellation lands; the result truncates, the raw event stream
      // doesn't.
      EXPECT_GE(ticker.snapshot().executions, with.executions);
    }
  }
}

TEST(ProgressTicker, ParallelSearchAggregatesAcrossWorkers) {
  ProgressTicker ticker(/*period_seconds=*/1e9, nullptr);
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> regs(4, kBottom);
    for (int p = 0; p < 4; ++p) {
      rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
    }
    rt.run(driver);
  };
  Explorer::Options opts;
  opts.threads = 4;
  opts.reduction = Reduction::kSleepSets;
  opts.observer = &ticker;
  const auto result = Explorer::explore(body, opts);
  ASSERT_TRUE(result.ok());

  const auto snap = ticker.snapshot();
  EXPECT_EQ(snap.executions, result.executions);
  EXPECT_EQ(snap.reduced, result.reduced_subtrees);
}

TEST(Observer, RandomSweepFeedsObserver) {
  AccessCounters counters;
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> regs(2, kBottom);
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
    }
    rt.run(driver);
  };
  const auto sweep = RandomSweep::run(body, 25, 1, /*threads=*/1, &counters);
  EXPECT_TRUE(sweep.ok());
  EXPECT_EQ(counters.runs(), 25);
}

TEST(TraceJsonl, RoundTripsHistoryIntoTraceViz) {
  std::ostringstream sink;
  JsonlTraceWriter writer(sink);
  RoundRobinDriver rr;
  std::string original_dump;
  const auto violation = run_one(
      [&original_dump](SchedulePolicy& driver) {
        Runtime rt;
        RegisterArray<> regs(2, kBottom);
        History history;
        history.set_sink(thread_default_observer());
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) {
            const auto h = history.invoke(p, {p, 100 + p});
            regs[p].write(ctx, 100 + p);
            const Value seen = regs[(p + 1) % 2].read(ctx);
            history.respond(h, {seen});
          });
        }
        rt.run(driver);
        original_dump = history.dump();
      },
      rr, &writer);
  EXPECT_FALSE(violation.has_value());

  const ParsedTrace parsed = parse_trace_jsonl(sink.str());
  EXPECT_EQ(parsed.runs, 1);
  EXPECT_GT(parsed.steps, 0);
  EXPECT_EQ(parsed.total_steps, parsed.steps);
  EXPECT_TRUE(parsed.quiescent);
  EXPECT_TRUE(parsed.violations.empty());
  // The reconstructed history is entry-for-entry identical...
  EXPECT_EQ(parsed.history.dump(), original_dump);
  // ...and renders into the space-time diagram without further plumbing.
  const std::string diagram = render_history(parsed.history);
  EXPECT_NE(diagram.find("p0"), std::string::npos);
  EXPECT_NE(diagram.find("p1"), std::string::npos);
}

TEST(TraceJsonl, ViolationMessagesSurviveEscaping) {
  std::ostringstream sink;
  JsonlTraceWriter writer(sink);
  RoundRobinDriver rr;
  const std::string nasty = "line1\nline2\t\"quoted\" back\\slash";
  const auto violation = run_one(
      [&](SchedulePolicy&) { throw SpecViolation(nasty); }, rr, &writer);
  ASSERT_TRUE(violation.has_value());
  const ParsedTrace parsed = parse_trace_jsonl(sink.str());
  ASSERT_EQ(parsed.violations.size(), 1u);
  EXPECT_EQ(parsed.violations.front(), nasty);
}

TEST(TraceJsonl, BottomValuesRoundTrip) {
  std::ostringstream sink;
  JsonlTraceWriter writer(sink);
  History history;
  history.set_sink(&writer);
  const auto h = history.invoke(0, {0, 7});
  history.respond(h, {kBottom});
  const ParsedTrace parsed = parse_trace_jsonl(sink.str());
  ASSERT_EQ(parsed.history.entries().size(), 1u);
  EXPECT_EQ(parsed.history.entries()[0].response.front(), kBottom);
  EXPECT_EQ(parsed.history.dump(), history.dump());
}

TEST(TraceJsonl, ParserRejectsGarbage) {
  EXPECT_THROW(parse_trace_jsonl("{\"ev\":\"mystery\"}"), SimError);
  EXPECT_THROW(parse_trace_jsonl("{\"ev\":\"respond\",\"pid\":0,\"handle\":3,"
                                 "\"t\":1,\"resp\":[]}"),
               SimError);
  // Hostile integer fields: no digits, trailing garbage, int64 overflow,
  // and values outside the field's range (a pid must fit an int, a handle
  // must not be negative, a timestamp must be a clock reading the restored
  // history can step past) are rejected rather than read as 0 or wrapped.
  for (const char* line : {
           "{\"ev\":\"crash\",\"pid\":x,\"step\":1}",
           "{\"ev\":\"crash\",\"pid\":,\"step\":1}",
           "{\"ev\":\"crash\",\"pid\":+1,\"step\":1}",
           "{\"ev\":\"crash\",\"pid\":1x,\"step\":1}",
           "{\"ev\":\"crash\",\"pid\":4294967297,\"step\":1}",
           "{\"ev\":\"recover\",\"pid\":-1,\"step\":1}",
           "{\"ev\":\"recover\",\"pid\":0,\"step\":99999999999999999999}",
           "{\"ev\":\"invoke\",\"pid\":0,\"handle\":-1,\"t\":1,\"op\":[0]}",
           "{\"ev\":\"invoke\",\"pid\":0,\"handle\":0,\"t\":1.5,\"op\":[0]}",
           "{\"ev\":\"invoke\",\"pid\":0,\"handle\":0,\"t\":-1,\"op\":[0]}",
           "{\"ev\":\"invoke\",\"pid\":0,\"handle\":0,"
           "\"t\":9223372036854775807,\"op\":[0]}",
           "{\"ev\":\"run_end\",\"steps\":-,\"quiescent\":true}",
       }) {
    EXPECT_THROW(parse_trace_jsonl(line), SimError) << line;
  }
  // Hostile value arrays and string escapes: an overflowing value must not
  // clamp to int64 max or silently become ⊥ (INT64_MIN), array syntax is
  // strict, and a \u escape needs four hex digits naming an ASCII code
  // point instead of decaying to a NUL byte.
  const std::string invoke =
      "{\"ev\":\"invoke\",\"pid\":0,\"handle\":0,\"t\":1,\"op\":[0]}\n";
  for (const std::string& text : {
           std::string("{\"ev\":\"invoke\",\"pid\":0,\"handle\":0,\"t\":1,"
                       "\"op\":[-9223372036854775809]}"),
           std::string("{\"ev\":\"invoke\",\"pid\":0,\"handle\":0,\"t\":1,"
                       "\"op\":[9223372036854775808]}"),
           std::string("{\"ev\":\"invoke\",\"pid\":0,\"handle\":0,\"t\":1,"
                       "\"op\":[1,]}"),
           std::string("{\"ev\":\"invoke\",\"pid\":0,\"handle\":0,\"t\":1,"
                       "\"op\":[1 2]}"),
           std::string("{\"ev\":\"invoke\",\"pid\":0,\"handle\":0,\"t\":1,"
                       "\"op\":[+1]}"),
           std::string("{\"ev\":\"invoke\",\"pid\":0,\"handle\":0,\"t\":1,"
                       "\"op\":[1"),
           invoke + "{\"ev\":\"respond\",\"pid\":0,\"handle\":0,\"t\":2,"
                    "\"resp\":[-9223372036854775809]}",
           invoke + "{\"ev\":\"respond\",\"pid\":0,\"handle\":0,\"t\":2,"
                    "\"resp\":[0.5]}",
           std::string("{\"ev\":\"violation\",\"msg\":\"a\\uZZZZb\"}"),
           std::string("{\"ev\":\"violation\",\"msg\":\"a\\u12\"}"),
           std::string("{\"ev\":\"violation\",\"msg\":\"a\\u00e9\"}"),
       }) {
    EXPECT_THROW(parse_trace_jsonl(text), SimError) << text;
  }
  // The extremes that are legal still parse: INT64_MIN is the writer's ⊥,
  // and a control byte travels as a \u escape.
  const ParsedTrace edge = parse_trace_jsonl(
      invoke + "{\"ev\":\"respond\",\"pid\":0,\"handle\":0,\"t\":2,"
               "\"resp\":[-9223372036854775808,9223372036854775807]}\n"
               "{\"ev\":\"violation\",\"msg\":\"a\\u001fb\"}");
  ASSERT_EQ(edge.history.entries().size(), 1u);
  EXPECT_EQ(edge.history.entries()[0].response,
            (std::vector<Value>{kBottom, std::numeric_limits<Value>::max()}));
  ASSERT_EQ(edge.violations.size(), 1u);
  EXPECT_EQ(edge.violations[0], "a\x1f" "b");
  // A handle far beyond any history is only a key, never an allocation
  // size: it parses, and its respond pairs with it.
  const ParsedTrace far = parse_trace_jsonl(
      "{\"ev\":\"invoke\",\"pid\":0,\"handle\":9223372036854775807,"
      "\"t\":1,\"op\":[0]}\n"
      "{\"ev\":\"respond\",\"pid\":0,\"handle\":9223372036854775807,"
      "\"t\":2,\"resp\":[5]}");
  ASSERT_EQ(far.history.entries().size(), 1u);
  EXPECT_EQ(far.history.entries()[0].response.front(), 5);
}

}  // namespace
}  // namespace subc
