// Tests for the MWMR-from-SWMR register: linearizability against the
// register spec under exhaustive and random schedules, agreement with the
// native MWMR register sequentially.
#include "subc/algorithms/mwmr_register.hpp"

#include <gtest/gtest.h>

#include "subc/checking/linearizability.hpp"
#include "subc/objects/register.hpp"
#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

/// Sequential MWMR register spec: op {0, v} = write; op {1} = read.
struct RegisterSpec {
  struct State {
    Value value = kBottom;
  };
  [[nodiscard]] State initial() const { return {}; }
  bool apply(State& s, const std::vector<Value>& op,
             std::vector<Value>& response) const {
    if (op[0] == 0) {
      s.value = op[1];
      response = {};
    } else {
      response = {s.value};
    }
    return true;
  }
  [[nodiscard]] std::string key(const State& s) const {
    return to_string(s.value);
  }
};

TEST(MwmrFromSwmr, SequentialSemanticsMatchNativeRegister) {
  Runtime rt;
  MwmrFromSwmr built(3);
  Register<> native(kBottom);
  rt.add_process([&](Context& ctx) {
    EXPECT_EQ(built.read(ctx), native.read(ctx));
    for (const auto& [slot, v] :
         {std::pair{0, Value{5}}, {2, Value{7}}, {1, Value{9}},
          {0, Value{11}}}) {
      built.write(ctx, slot, v);
      native.write(ctx, v);
      EXPECT_EQ(built.read(ctx), native.read(ctx));
    }
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

TEST(MwmrFromSwmr, LinearizableUnderExhaustiveSchedules) {
  // 2 writers + 1 reader, every schedule, history checked against the spec.
  const auto result = Explorer::explore(
      [](SchedulePolicy& driver) {
        Runtime rt;
        MwmrFromSwmr reg(2);
        History history;
        for (int w = 0; w < 2; ++w) {
          rt.add_process([&, w](Context& ctx) {
            const auto h = history.invoke(w, {0, 10 + w});
            reg.write(ctx, w, 10 + w);
            history.respond(h, {});
          });
        }
        rt.add_process([&](Context& ctx) {
          const auto h = history.invoke(2, {1});
          const Value got = reg.read(ctx);
          history.respond(h, {got});
        });
        rt.run(driver);
        require_linearizable(RegisterSpec{}, history);
      },
      Explorer::Options{.max_executions = 300'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

TEST(MwmrFromSwmr, ConcurrentWritersConvergeUnderRandomSchedules) {
  const auto result = RandomSweep::run(
      [](SchedulePolicy& driver) {
        Runtime rt;
        MwmrFromSwmr reg(4);
        History history;
        for (int w = 0; w < 4; ++w) {
          rt.add_process([&, w](Context& ctx) {
            {
              const auto h = history.invoke(w, {0, 100 + w});
              reg.write(ctx, w, 100 + w);
              history.respond(h, {});
            }
            {
              const auto h = history.invoke(w, {1});
              history.respond(h, {reg.read(ctx)});
            }
          });
        }
        rt.run(driver);
        require_linearizable(RegisterSpec{}, history);
      },
      800);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(MwmrFromSwmr, InitialValueVisibleBeforeAnyWrite) {
  Runtime rt;
  MwmrFromSwmr reg(2, /*initial=*/42);
  rt.add_process([&](Context& ctx) { EXPECT_EQ(reg.read(ctx), 42); });
  RoundRobinDriver driver;
  rt.run(driver);
}

}  // namespace
}  // namespace subc
