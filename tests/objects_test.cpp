// Unit tests for the atomic base objects: registers, counters, test&set,
// swap, fetch&add, queue, consensus and set-consensus objects, strong set
// election.
#include <gtest/gtest.h>

#include <set>

#include "subc/objects/consensus_object.hpp"
#include "subc/objects/counter.hpp"
#include "subc/objects/election_object.hpp"
#include "subc/objects/fetch_add.hpp"
#include "subc/objects/queue.hpp"
#include "subc/objects/register.hpp"
#include "subc/objects/set_consensus_object.hpp"
#include "subc/objects/snapshot.hpp"
#include "subc/objects/swap.hpp"
#include "subc/objects/test_and_set.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/runtime.hpp"

namespace subc {
namespace {

// Convenience: run a single-process world.
template <class Body>
Runtime::RunResult solo(Body body) {
  Runtime rt;
  rt.add_process([&](Context& ctx) { body(ctx); });
  RoundRobinDriver driver;
  return rt.run(driver);
}

TEST(Register, ReadsBackWrites) {
  Register<> reg(kBottom);
  solo([&](Context& ctx) {
    EXPECT_EQ(reg.read(ctx), kBottom);
    reg.write(ctx, 5);
    EXPECT_EQ(reg.read(ctx), 5);
  });
}

TEST(RegisterArray, IndependentCells) {
  RegisterArray<> regs(3, kBottom);
  solo([&](Context& ctx) {
    regs[0].write(ctx, 1);
    regs[2].write(ctx, 3);
    EXPECT_EQ(regs[0].read(ctx), 1);
    EXPECT_EQ(regs[1].read(ctx), kBottom);
    EXPECT_EQ(regs[2].read(ctx), 3);
  });
  EXPECT_THROW(regs[3], SimError);
  EXPECT_THROW(regs[-1], SimError);
}

TEST(Counter, IncrementAndRead) {
  Counter counter;
  solo([&](Context& ctx) {
    EXPECT_EQ(counter.read(ctx), 0);
    counter.increment(ctx);
    counter.increment(ctx);
    EXPECT_EQ(counter.read(ctx), 2);
  });
}

TEST(TestAndSet, ExactlyOneWinnerUnderAllSchedules) {
  const auto result = Explorer::explore([](SchedulePolicy& driver) {
    Runtime rt;
    TestAndSet tas;
    std::vector<bool> won(3, false);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        won[static_cast<std::size_t>(p)] = !tas.test_and_set(ctx);
      });
    }
    rt.run(driver);
    int winners = 0;
    for (const bool w : won) {
      winners += w ? 1 : 0;
    }
    if (winners != 1) {
      throw SpecViolation("test&set winners != 1");
    }
  });
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

TEST(Swap, ExchangesValues) {
  SwapRegister swap(kBottom);
  solo([&](Context& ctx) {
    EXPECT_EQ(swap.swap(ctx, 1), kBottom);
    EXPECT_EQ(swap.swap(ctx, 2), 1);
    EXPECT_EQ(swap.read(ctx), 2);
  });
}

TEST(FetchAdd, ReturnsPreviousValue) {
  FetchAdd fa(10);
  solo([&](Context& ctx) {
    EXPECT_EQ(fa.fetch_add(ctx, 5), 10);
    EXPECT_EQ(fa.fetch_add(ctx, -3), 15);
    EXPECT_EQ(fa.read(ctx), 12);
  });
}

TEST(FifoQueue, FifoOrderAndEmptyBottom) {
  FifoQueue queue;
  solo([&](Context& ctx) {
    EXPECT_EQ(queue.dequeue(ctx), kBottom);
    queue.enqueue(ctx, 1);
    queue.enqueue(ctx, 2);
    EXPECT_EQ(queue.dequeue(ctx), 1);
    EXPECT_EQ(queue.dequeue(ctx), 2);
    EXPECT_EQ(queue.dequeue(ctx), kBottom);
  });
}

TEST(FifoQueue, SupportsPreloadedTokens) {
  FifoQueue queue{7};
  solo([&](Context& ctx) {
    EXPECT_EQ(queue.dequeue(ctx), 7);
    EXPECT_EQ(queue.dequeue(ctx), kBottom);
  });
}

TEST(AtomicSnapshotObject, ScanSeesAllUpdates) {
  AtomicSnapshot<> snap(3, kBottom);
  solo([&](Context& ctx) {
    snap.update(ctx, 0, 10);
    snap.update(ctx, 2, 30);
    const auto view = snap.scan(ctx);
    EXPECT_EQ(view, (std::vector<Value>{10, kBottom, 30}));
  });
}

TEST(ConsensusObject, FirstProposalWins) {
  ConsensusObject cons(3);
  solo([&](Context& ctx) {
    EXPECT_EQ(cons.propose(ctx, 42), 42);
    EXPECT_EQ(cons.propose(ctx, 7), 42);
    EXPECT_EQ(cons.propose(ctx, 9), 42);
  });
}

TEST(ConsensusObject, HangsBeyondCapacity) {
  Runtime rt;
  ConsensusObject cons(1);
  rt.add_process([&](Context& ctx) { cons.propose(ctx, 1); });
  rt.add_process([&](Context& ctx) { cons.propose(ctx, 2); });
  RoundRobinDriver driver;
  const auto result = rt.run(driver);
  EXPECT_EQ(result.states[0], ProcState::kDone);
  EXPECT_EQ(result.states[1], ProcState::kHung);
}

TEST(ConsensusObject, RejectsBadParameters) {
  EXPECT_THROW(ConsensusObject(0), SimError);
  ConsensusObject cons(1);
  solo([&](Context& ctx) {
    EXPECT_THROW(cons.propose(ctx, kBottom), SimError);
  });
}

TEST(SetConsensusObject, AllBehavioursSatisfyTheSpec) {
  // Exhaustively drive a (3,2)-set-consensus object with 3 distinct
  // proposals: under every schedule and every nondeterministic resolution,
  // outputs are valid proposals and take at most 2 distinct values.
  const auto result = Explorer::explore([](SchedulePolicy& driver) {
    Runtime rt;
    SetConsensusObject sc(3, 2);
    const std::vector<Value> inputs{10, 20, 30};
    std::vector<Value> outputs(3, kBottom);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        outputs[static_cast<std::size_t>(p)] =
            sc.propose(ctx, inputs[static_cast<std::size_t>(p)]);
      });
    }
    rt.run(driver);
    std::set<Value> distinct;
    for (int p = 0; p < 3; ++p) {
      const Value out = outputs[static_cast<std::size_t>(p)];
      if (std::find(inputs.begin(), inputs.end(), out) == inputs.end()) {
        throw SpecViolation("set-consensus output not a proposal");
      }
      distinct.insert(out);
    }
    if (distinct.size() > 2) {
      throw SpecViolation("more than k distinct outputs");
    }
  });
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

TEST(SetConsensusObject, AdversaryCanRealizeKDistinctOutputs) {
  // The bound k is tight: some behaviour produces 2 distinct outputs.
  int max_distinct = 0;
  const auto result = Explorer::explore([&](SchedulePolicy& driver) {
    Runtime rt;
    SetConsensusObject sc(3, 2);
    std::vector<Value> outputs(3, kBottom);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        outputs[static_cast<std::size_t>(p)] = sc.propose(ctx, p + 1);
      });
    }
    rt.run(driver);
    std::set<Value> distinct(outputs.begin(), outputs.end());
    max_distinct = std::max(max_distinct, static_cast<int>(distinct.size()));
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(max_distinct, 2);
}

TEST(SetConsensusObject, HangsBeyondN) {
  Runtime rt;
  SetConsensusObject sc(2, 1);
  std::vector<ProcState> expected;
  for (int p = 0; p < 3; ++p) {
    rt.add_process([&, p](Context& ctx) { sc.propose(ctx, p); });
  }
  RoundRobinDriver driver;
  const auto result = rt.run(driver);
  EXPECT_EQ(result.states[0], ProcState::kDone);
  EXPECT_EQ(result.states[1], ProcState::kDone);
  EXPECT_EQ(result.states[2], ProcState::kHung);
}

TEST(StrongSetElectionObject, AllBehavioursSatisfyStrongElection) {
  // (3,2)-strong set election: ≤2 winners, self-election, validity — under
  // every schedule and adversary choice.
  const auto result = Explorer::explore([](SchedulePolicy& driver) {
    Runtime rt;
    StrongSetElectionObject sse(3, 2);
    std::vector<Value> elected(3, kBottom);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        elected[static_cast<std::size_t>(p)] =
            sse.invoke(ctx, static_cast<Value>(p));
      });
    }
    rt.run(driver);
    std::set<Value> distinct;
    for (int p = 0; p < 3; ++p) {
      const Value e = elected[static_cast<std::size_t>(p)];
      if (e < 0 || e > 2) {
        throw SpecViolation("elected a non-participant");
      }
      if (elected[static_cast<std::size_t>(e)] != e) {
        throw SpecViolation("self-election violated");
      }
      distinct.insert(e);
    }
    if (distinct.size() > 2) {
      throw SpecViolation("more than k distinct winners");
    }
  });
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

TEST(StrongSetElectionObject, FirstInvokerCanAlwaysSelfElect) {
  StrongSetElectionObject sse(3, 2);
  solo([&](Context& ctx) { EXPECT_EQ(sse.invoke(ctx, 5), 5); });
}

TEST(ObjectParameterValidation, RejectsIllegalConstructions) {
  EXPECT_THROW(SetConsensusObject(2, 2), SimError);
  EXPECT_THROW(SetConsensusObject(2, 0), SimError);
  EXPECT_THROW(StrongSetElectionObject(2, 3), SimError);
  EXPECT_THROW((AtomicSnapshot<>(0, kBottom)), SimError);
  EXPECT_THROW((RegisterArray<>(0, kBottom)), SimError);
}

}  // namespace
}  // namespace subc
