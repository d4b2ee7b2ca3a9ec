// Machine-checked critical-state (valence) analysis and consensus harnesses.
//
// Negative side (Lemma 38 and the 2016 consensus-number bounds): Herlihy's
// critical-state argument shows an object cannot solve 2-process consensus
// when, at every critical configuration with pending steps s_P and s_Q on
// the same object, one of the following indistinguishability cases holds
// (each contradicts the opposite valences of C·s_P and C·s_Q):
//
//   (a) overwrite-P : state(C·s_Q·s_P) == state(C·s_P) and P's response
//                     equal — Q's step is invisible to a solo run of P;
//   (b) overwrite-Q : symmetric;
//   (c) commute-P   : state(C·s_P·s_Q) == state(C·s_Q·s_P) and P's response
//                     equal in both orders — solo-P cannot tell the orders
//                     apart;
//   (d) commute-Q   : symmetric.
//
// `check_valence_cases` enumerates (state, s_P, s_Q) triples of a small
// object model and reports every uncovered pair. For WRN_k with k ≥ 3 all
// pairs are covered (this is exactly the paper's Lemma 38 case analysis,
// mechanized); for k = 2 (SWAP) the adjacent-index pairs are uncovered —
// the escape hatch through which SWAP attains consensus number 2. For
// GAC(n,i) pairs are covered relative to (n+1)-process consensus.
//
// A step that hangs its process is indistinguishability-for-that-process by
// itself: a hung process never decides, so it cannot decide differently
// (and our objects hang without mutating state).
//
// Positive side: `check_consensus_algorithm` exhaustively (or randomly)
// validates a consensus algorithm for n processes, and
// `find_consensus_violation` searches for a schedule breaking an alleged
// algorithm — used to demonstrate that natural (n+1)-consensus attempts on
// these objects fail.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "subc/runtime/explorer.hpp"
#include "subc/runtime/value.hpp"

namespace subc {

/// Report of the valence case analysis.
struct ValenceReport {
  long states_checked = 0;
  long pairs_checked = 0;
  /// Human-readable descriptions of uncovered (state, s_P, s_Q) triples.
  std::vector<std::string> uncovered;

  [[nodiscard]] bool all_covered() const noexcept { return uncovered.empty(); }
};

/// Object model for the case analysis:
///   State   — copyable object state
///   Op      — an operation with arguments
///   states()— representative states (include at least all states reachable
///             with the ops under consideration)
///   ops()   — the operation alphabet
///   apply(State&, Op) -> std::optional<Value>  (nullopt = the op hangs; a
///             hanging op must not mutate the state)
///   key(State) -> std::string, describe(Op) -> std::string
template <class Model>
ValenceReport check_valence_cases(const Model& model) {
  ValenceReport report;
  const auto states = model.states();
  const auto ops = model.ops();
  for (const auto& s0 : states) {
    ++report.states_checked;
    for (const auto& op_p : ops) {
      for (const auto& op_q : ops) {
        ++report.pairs_checked;

        auto s_p = s0;  // C·s_P
        const auto rp = model.apply(s_p, op_p);
        auto s_q = s0;  // C·s_Q
        const auto rq = model.apply(s_q, op_q);

        auto s_pq = s_p;  // C·s_P·s_Q
        const auto rq_after_p = model.apply(s_pq, op_q);
        auto s_qp = s_q;  // C·s_Q·s_P
        const auto rp_after_q = model.apply(s_qp, op_p);

        const auto same = [&model](const auto& a, const auto& b) {
          return model.key(a) == model.key(b);
        };
        // A process hung by its step can never decide, so it cannot witness
        // a difference; equal responses likewise hide the other's step.
        const auto hidden = [](const std::optional<Value>& a,
                               const std::optional<Value>& b) {
          return !a.has_value() || !b.has_value() || *a == *b;
        };

        const bool overwrite_p = same(s_qp, s_p) && hidden(rp, rp_after_q);
        const bool overwrite_q = same(s_pq, s_q) && hidden(rq, rq_after_p);
        const bool commute_p = same(s_pq, s_qp) && hidden(rp, rp_after_q);
        const bool commute_q = same(s_pq, s_qp) && hidden(rq, rq_after_p);

        if (!(overwrite_p || overwrite_q || commute_p || commute_q)) {
          report.uncovered.push_back("state{" + model.key(s0) + "} s_P=" +
                                     model.describe(op_p) + " s_Q=" +
                                     model.describe(op_q));
        }
      }
    }
  }
  return report;
}

/// Model of WRN_k over a small value domain: states are all slot
/// assignments, ops are all (index, value) writes.
struct WrnModel {
  int k;
  std::vector<Value> domain;

  struct Op {
    int index;
    Value v;
  };
  using State = std::vector<Value>;

  [[nodiscard]] std::vector<State> states() const;
  [[nodiscard]] std::vector<Op> ops() const;
  std::optional<Value> apply(State& s, const Op& op) const;
  [[nodiscard]] std::string key(const State& s) const;
  [[nodiscard]] static std::string describe(const Op& op);
};

/// Model of the cyclic-group-arrival component GAC(n, i): states are arrival
/// prefixes (values drawn from the domain at readable positions), ops are
/// proposals of domain values.
struct GacModel {
  int n;
  int i;
  std::vector<Value> domain;

  struct Op {
    Value v;
  };
  struct State {
    std::vector<Value> arrivals;
  };

  [[nodiscard]] std::vector<State> states() const;
  [[nodiscard]] std::vector<Op> ops() const;
  std::optional<Value> apply(State& s, const Op& op) const;
  [[nodiscard]] std::string key(const State& s) const;
  [[nodiscard]] static std::string describe(const Op& op);
};

/// Runs the case analysis for WRN_k (k >= 2) over domain {1, 2}.
ValenceReport check_wrn_valence(int k);

/// Runs the case analysis for GAC(n, i) over domain {1, 2}.
ValenceReport check_gac_valence(int n, int i);

/// A consensus algorithm under test: builds a fresh world whose processes
/// propose `inputs[pid]` and decide. The harness validates agreement +
/// validity + termination over every (or `rounds` random) executions.
using ConsensusWorldBody =
    std::function<void(SchedulePolicy&, const std::vector<Value>&)>;

struct ConsensusCheck {
  std::int64_t executions = 0;
  /// Scheduling options the partial-order reduction skipped, summed over
  /// all input vectors (0 under `Reduction::kNone`).
  std::int64_t reduced_subtrees = 0;
  bool exhaustive = false;
  std::optional<std::string> violation;

  [[nodiscard]] bool ok() const noexcept { return !violation.has_value(); }
};

/// Validates `body` as consensus for the given input vectors, exhaustively
/// when feasible. Each input vector spawns one exploration. With
/// `threads > 1` each exploration runs on the parallel explorer (the body
/// must then be safe to run from several threads at once; bodies that build
/// their whole world inside the call, as all in-tree ones do, qualify).
ConsensusCheck check_consensus_algorithm(
    const ConsensusWorldBody& body,
    const std::vector<std::vector<Value>>& input_vectors,
    std::int64_t max_executions_per_input = 500'000, int threads = 1);

/// Searches for a violating schedule of an alleged consensus algorithm.
/// Returns the violation message (expected for impossible tasks), or
/// nullopt if none was found within the budget. `threads` as above; the
/// reported schedule is the canonically least one at any thread count.
std::optional<std::string> find_consensus_violation(
    const ConsensusWorldBody& body, const std::vector<Value>& inputs,
    std::int64_t max_executions = 500'000, int threads = 1);

// ---------------------------------------------------------------------------
// Bounded protocol synthesis (the strong form of the T5 boundary)
// ---------------------------------------------------------------------------

/// A 2-process protocol template over one WRN_k object and announcement
/// registers: role b announces its value, performs t = WRN(index[b], v_b)
/// and decides per rule[b]:
///   0: always its own value
///   1: t if t ≠ ⊥, else own
///   2: the other's announcement if t ≠ ⊥ (own if that is still ⊥), else own
///   3: own if t ≠ ⊥, else the other's announcement (own if ⊥)
///   4: t if t ≠ ⊥, else the other's announcement (own if ⊥)
struct WrnProtocol {
  int index[2] = {0, 0};
  int rule[2] = {0, 0};
};

/// Result of exhaustively model-checking every WrnProtocol instance.
struct ProtocolSearchResult {
  long protocols_checked = 0;
  long correct = 0;
  /// The correct protocols found (empty for k >= 3 — Theorem 1's boundary).
  std::vector<WrnProtocol> winners;
};

/// Enumerates all k² × 25 protocols of the family above and exhaustively
/// model-checks each as a 2-process consensus algorithm on WRN_k. For
/// k = 2 several protocols succeed (SWAP's consensus number 2); for k ≥ 3
/// none do — an automated, family-wide strengthening of the single
/// counterexample protocol.
ProtocolSearchResult search_wrn_two_consensus_protocols(int k);

/// The O_{n,k}-side analogue: a `procs`-process protocol template over one
/// GAC(n, i) component and announcement registers. Each process proposes
/// once and decides per rule:
///   0: always own;  1: the returned value;
///   2: returned if it differs from own, else own (equivalent to 1 here,
///      kept for family symmetry);  3: own if returned == own, else the
///      announcement of the returned value's proposer (own while unwritten).
struct GacProtocol {
  int rule[8] = {0};  ///< per process (procs <= 8)
};

/// Exhaustively model-checks every rule assignment for `procs` processes on
/// GAC(n, i). For procs <= n every assignment with all-"returned" rules
/// succeeds (block 0 gives consensus); for procs = n+1 none does —
/// synthesizing the consensus-number-n boundary of the 2016 components.
ProtocolSearchResult search_gac_consensus_protocols(int n, int i, int procs);

}  // namespace subc
