// Soundness fixture for the sleep-set partial-order reduction: on a zoo of
// small worlds (registers, GAC/O_{n,k} instances, WRN objects, classic
// consensus constructions) the reduced search must reach the same verdict as
// the raw enumeration, explore no more executions, and report bit-identical
// Result fields at every thread count for a fixed reduction setting.
// Seeded violations — reachable only through specific interleavings of
// dependent steps — must still be caught with reduction on.
#include <gtest/gtest.h>

#include <array>

#include "subc/algorithms/classic_consensus.hpp"
#include "subc/core/tasks.hpp"
#include "subc/objects/onk.hpp"
#include "subc/objects/register.hpp"
#include "subc/objects/swap.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

/// The four cells of the soundness matrix: {none, sleep_sets} × {1, 4}.
struct Matrix {
  Explorer::Result none_serial;
  Explorer::Result none_parallel;
  Explorer::Result sleep_serial;
  Explorer::Result sleep_parallel;
};

Matrix run_matrix(const ExecutionBody& body,
                  std::int64_t budget = 2'000'000) {
  const auto cell = [&](Reduction reduction, int threads) {
    Explorer::Options opts;
    opts.max_executions = budget;
    opts.reduction = reduction;
    opts.threads = threads;
    return Explorer::explore(body, opts);
  };
  Matrix m;
  m.none_serial = cell(Reduction::kNone, 1);
  m.none_parallel = cell(Reduction::kNone, 4);
  m.sleep_serial = cell(Reduction::kSleepSets, 1);
  m.sleep_parallel = cell(Reduction::kSleepSets, 4);
  return m;
}

/// Every Result field must match bit-for-bit (the cross-thread determinism
/// guarantee at a fixed reduction setting).
void expect_bit_identical(const Explorer::Result& a,
                          const Explorer::Result& b) {
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.pruned_subtrees, b.pruned_subtrees);
  EXPECT_EQ(a.reduced_subtrees, b.reduced_subtrees);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.violation, b.violation);
  ASSERT_EQ(a.violating_trace.size(), b.violating_trace.size());
  for (std::size_t i = 0; i < a.violating_trace.size(); ++i) {
    EXPECT_EQ(a.violating_trace[i].chosen, b.violating_trace[i].chosen);
    EXPECT_EQ(a.violating_trace[i].arity, b.violating_trace[i].arity);
    EXPECT_EQ(a.violating_trace[i].enabled, b.violating_trace[i].enabled);
    EXPECT_EQ(a.violating_trace[i].sleep, b.violating_trace[i].sleep);
  }
}

/// The core soundness contract: identical verdict across reduction settings,
/// reduction never explores more, both settings thread-count-deterministic.
void expect_sound(const Matrix& m) {
  expect_bit_identical(m.none_serial, m.none_parallel);
  expect_bit_identical(m.sleep_serial, m.sleep_parallel);
  EXPECT_EQ(m.none_serial.ok(), m.sleep_serial.ok());
  EXPECT_EQ(m.none_serial.complete, m.sleep_serial.complete);
  EXPECT_LE(m.sleep_serial.executions, m.none_serial.executions);
}

TEST(ReductionSoundness, RegisterWorldPassesAndShrinks) {
  // 3 processes over 3 registers: write own cell, read the next one. Reads
  // of distinct cells commute, so sleep sets must shrink the tree strictly
  // while the read-your-neighbor validity property keeps passing.
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> regs(3, kBottom);
    std::array<Value, 3> seen{kBottom, kBottom, kBottom};
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        regs[p].write(ctx, 10 + p);
        seen[static_cast<std::size_t>(p)] = regs[(p + 1) % 3].read(ctx);
      });
    }
    rt.run(driver);
    for (int p = 0; p < 3; ++p) {
      const Value v = seen[static_cast<std::size_t>(p)];
      if (v != kBottom && v != 10 + (p + 1) % 3) {
        throw SpecViolation("read a value nobody wrote to that cell");
      }
    }
  };
  const Matrix m = run_matrix(body);
  expect_sound(m);
  EXPECT_TRUE(m.none_serial.ok()) << *m.none_serial.violation;
  EXPECT_TRUE(m.none_serial.complete);
  EXPECT_LT(m.sleep_serial.executions, m.none_serial.executions);
  EXPECT_GT(m.sleep_serial.reduced_subtrees, 0);
  EXPECT_EQ(m.none_serial.reduced_subtrees, 0);
}

TEST(ReductionSoundness, GacWorldKeepsAgreementVerdict) {
  // An onk_test instance: GAC(1,1) at full occupancy (m = 3) must emit at
  // most 2 distinct outputs, all proposals — exhaustively, both reduced and
  // raw. The GAC propose is an RMW on one object, so every pair of proposes
  // conflicts and reduction comes only from the decide/bookkeeping steps.
  const std::vector<Value> inputs{200, 201, 202};
  const ExecutionBody body = [&](SchedulePolicy& driver) {
    Runtime rt;
    GacObject gac(1, 1);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(gac.propose(ctx, inputs[static_cast<std::size_t>(p)]));
      });
    }
    const auto run = rt.run(driver);
    check_all_done_and_decided(run);
    check_set_consensus(run, inputs, 2);
  };
  const Matrix m = run_matrix(body);
  expect_sound(m);
  EXPECT_TRUE(m.none_serial.ok()) << *m.none_serial.violation;
  EXPECT_TRUE(m.none_serial.complete);
}

TEST(ReductionSoundness, WrnWorldKeepsValidityVerdict) {
  // A wrn_object_test instance: 3 processes use 1sWRN_3 once each with
  // distinct indices; every output is ⊥ or some proposed value.
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    OneShotWrnObject wrn(3);
    std::array<Value, 3> got{kBottom, kBottom, kBottom};
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        got[static_cast<std::size_t>(p)] = wrn.wrn(ctx, p, 10 + p);
      });
    }
    rt.run(driver);
    for (const Value v : got) {
      if (v != kBottom && (v < 10 || v > 12)) {
        throw SpecViolation("1sWRN returned a never-written value");
      }
    }
  };
  const Matrix m = run_matrix(body);
  expect_sound(m);
  EXPECT_TRUE(m.none_serial.ok()) << *m.none_serial.violation;
  EXPECT_TRUE(m.none_serial.complete);
}

TEST(ReductionSoundness, ClassicConsensusWorldKeepsVerdict) {
  // A classic_consensus_test instance: 2-consensus from swap. Agreement and
  // validity hold on every schedule, reduced or not.
  const std::vector<Value> inputs{3, 9};
  const ExecutionBody body = [&](SchedulePolicy& driver) {
    Runtime rt;
    TwoConsensusShared shared;
    SwapRegister swap(kBottom);
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(consensus2_from_swap(
            ctx, shared, swap, p, inputs[static_cast<std::size_t>(p)]));
      });
    }
    const auto run = rt.run(driver);
    check_all_done_and_decided(run);
    check_validity(inputs, run.decisions);
    check_agreement(run.decisions);
  };
  const Matrix m = run_matrix(body);
  expect_sound(m);
  EXPECT_TRUE(m.none_serial.ok()) << *m.none_serial.violation;
  EXPECT_TRUE(m.none_serial.complete);
}

TEST(ReductionSoundness, SeededRaceViolationStillCaught) {
  // A seeded bug reachable only through one interleaving of *dependent*
  // steps: p1's write lands between p0's write and read. The two writes and
  // the read all touch the same register, so no sleep set may skip the
  // schedule that exposes it.
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    Register<> reg(kBottom);
    rt.add_process([&](Context& ctx) {
      reg.write(ctx, 1);
      if (reg.read(ctx) == 2) {
        throw SpecViolation("lost update: overwritten between write and read");
      }
    });
    rt.add_process([&](Context& ctx) { reg.write(ctx, 2); });
    rt.run(driver);
  };
  const Matrix m = run_matrix(body);
  expect_sound(m);
  EXPECT_FALSE(m.none_serial.ok());
  EXPECT_FALSE(m.sleep_serial.ok());
  EXPECT_EQ(*m.sleep_serial.violation,
            "lost update: overwritten between write and read");
}

TEST(ReductionSoundness, SeededViolationBehindCommutingNoiseStillCaught) {
  // The violating schedule sits *past* commuting steps the reduction is
  // free to reorder: two noise processes touch private registers (fully
  // independent), then the dependent race from the previous test must still
  // be reached in some representative interleaving.
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> noise(2, kBottom);
    Register<> reg(kBottom);
    rt.add_process([&](Context& ctx) {
      noise[0].write(ctx, 7);
      reg.write(ctx, 1);
      if (reg.read(ctx) == 2) {
        throw SpecViolation("race behind noise");
      }
    });
    rt.add_process([&](Context& ctx) {
      noise[1].write(ctx, 8);
      reg.write(ctx, 2);
    });
    rt.run(driver);
  };
  const Matrix m = run_matrix(body);
  expect_sound(m);
  EXPECT_FALSE(m.sleep_serial.ok());
  EXPECT_EQ(*m.sleep_serial.violation, "race behind noise");
  EXPECT_GT(m.sleep_serial.reduced_subtrees, 0);
}

TEST(ReductionSoundness, ChooseDecisionsComposeWithReduction) {
  // Object nondeterminism (driver.choose via ctx.choose) interleaved with
  // commuting register steps: choose decision points carry no footprint and
  // must never be skipped, while the register noise still reduces.
  const ExecutionBody body = [](SchedulePolicy& driver) {
    Runtime rt;
    RegisterArray<> regs(2, kBottom);
    std::array<std::uint32_t, 2> picks{0, 0};
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&, p](Context& ctx) {
        regs[p].write(ctx, p);
        picks[static_cast<std::size_t>(p)] = ctx.choose(3);
      });
    }
    rt.run(driver);
    if (picks[0] >= 3 || picks[1] >= 3) {
      throw SpecViolation("choose out of range");
    }
  };
  const Matrix m = run_matrix(body);
  expect_sound(m);
  EXPECT_TRUE(m.none_serial.ok()) << *m.none_serial.violation;
  // Both choose arms must survive reduction: 3 × 3 choice combinations.
  EXPECT_GE(m.sleep_serial.executions, 9);
}

}  // namespace
}  // namespace subc
