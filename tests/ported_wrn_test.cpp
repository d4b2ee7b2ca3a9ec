// Tests for the soft-wired (ported) 1sWRN variant: agreement with the
// oblivious object on legal usage, detectable errors on port misuse, and
// Algorithm 2 running unchanged over ports.
#include "subc/objects/ported_wrn.hpp"

#include <gtest/gtest.h>

#include "subc/core/tasks.hpp"
#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

TEST(PortedWrn, AgreesWithObliviousObjectOnLegalUse) {
  for (const int k : {3, 4, 5}) {
    std::vector<int> permutation;
    for (int i = 0; i < k; ++i) {
      permutation.push_back(i);
    }
    do {
      Runtime rt;
      PortedWrn ported(k);
      OneShotWrnObject oblivious(k);
      rt.add_process([&](Context& ctx) {
        for (const int port : permutation) {
          ported.bind(ctx, port);
        }
        for (const int port : permutation) {
          const Value v = 100 + port;
          ASSERT_EQ(ported.wrn(ctx, port, v), oblivious.wrn(ctx, port, v));
        }
      });
      RoundRobinDriver driver;
      rt.run(driver);
    } while (k == 3 &&
             std::next_permutation(permutation.begin(), permutation.end()));
  }
}

TEST(PortedWrn, MisuseIsDetectableUnlikeTheObliviousHang) {
  Runtime rt;
  PortedWrn ported(3);
  rt.add_process([&](Context& ctx) {
    EXPECT_THROW(ported.wrn(ctx, 0, 1), SimError);  // unbound
    ported.bind(ctx, 0);
    EXPECT_THROW(ported.bind(ctx, 0), SimError);  // rebind
    EXPECT_EQ(ported.wrn(ctx, 0, 5), kBottom);
  });
  rt.add_process([&](Context& ctx) {
    ctx.decide(1);  // force one shared-ish action for scheduling symmetry
    EXPECT_THROW(ported.wrn(ctx, 0, 9), SimError);  // foreign port
  });
  ScriptedDriver driver({0, 0, 0, 0, 1});
  EXPECT_NO_THROW(rt.run(driver));
}

TEST(PortedWrn, Algorithm2OverPortsSolvesSetConsensus) {
  const int k = 4;
  std::vector<Value> inputs{10, 20, 30, 40};
  const auto result = Explorer::explore([&](SchedulePolicy& driver) {
    Runtime rt;
    PortedWrn ported(k);
    for (int p = 0; p < k; ++p) {
      rt.add_process([&, p](Context& ctx) {
        ported.bind(ctx, p);
        const Value t =
            ported.wrn(ctx, p, inputs[static_cast<std::size_t>(p)]);
        ctx.decide(t != kBottom ? t : inputs[static_cast<std::size_t>(p)]);
      });
    }
    const auto run = rt.run(driver);
    check_all_done_and_decided(run);
    check_set_consensus(run, inputs, k - 1);
  });
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

}  // namespace
}  // namespace subc
