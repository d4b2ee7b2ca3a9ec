// The F5 grid worlds, instrumented, on either execution engine.
//   reads — every step reads one shared register (fully commuting);
//   mixed — each process alternates a write to its own register and a
//           write to one shared register (partial conflict, convergent).
// Both engines announce identical footprints in identical order, so a grid
// point explores the same tree whichever engine hosts it.
#pragma once

#include "subc/algorithms/stepped_bodies.hpp"
#include "subc/objects/register.hpp"
#include "subc/runtime/runtime.hpp"
#include "trace.hpp"

namespace perfbench {

enum class GridWorld { kReads, kMixed };

inline const char* grid_name(GridWorld w) {
  return w == GridWorld::kReads ? "reads" : "mixed";
}

inline subc::ExecutionBody grid_body(GridWorld world, int procs, int steps,
                                     subc::Engine engine) {
  using namespace subc;
  return instrument(
      [=](SchedulePolicy& policy, Phases& ph) {
        Runtime rt;
        Register<> shared(0);
        RegisterArray<> own(procs, 0);
        for (int p = 0; p < procs; ++p) {
          if (world == GridWorld::kReads) {
            if (engine == Engine::kStepped) {
              rt.add_stepped(SteppedRegisterReader{&shared, steps});
            } else {
              rt.add_process([&shared, steps](Context& ctx) {
                for (int s = 0; s < steps; ++s) {
                  shared.read(ctx);
                }
              });
            }
          } else if (engine == Engine::kStepped) {
            rt.add_stepped(SteppedMixedWriter{&own[p], &shared, p, steps});
          } else {
            rt.add_process([&own, &shared, p, steps](Context& ctx) {
              for (int s = 0; s < steps; ++s) {
                if (s % 2 == 0) {
                  own[p].write(ctx, s);
                } else {
                  shared.write(ctx, p);
                }
              }
            });
          }
        }
        ph.built();
        const auto run = rt.run(policy);
        ph.ran(run.total_steps);
        // Every process ran all its steps: the grants add up exactly.
        ph.check([&] {
          if (run.total_steps != static_cast<std::int64_t>(procs) * steps ||
              !run.quiescent) {
            throw SpecViolation("grid world: " +
                                std::to_string(run.total_steps) +
                                " grants, expected " +
                                std::to_string(procs * steps));
          }
        });
      },
      engine);
}

}  // namespace perfbench
