// Seeded mutation fuzzing of the two loaders that read files from outside
// the process: `parse_trace_jsonl` (checking/trace_jsonl.hpp) and
// `load_snapshot` (checking/checkpoint.hpp). Valid inputs produced by the
// real writers are mutated by bit flips, truncations, byte insertions and
// digit-run splices; the oracle is that every input either parses or throws
// `SimError`. Any other exception fails the test, and a crash or an
// AddressSanitizer / UndefinedBehaviorSanitizer report fails it in the
// sanitizer suites. The mutation loop is hand-rolled and fully seeded, so a
// failure reproduces from the printed case number.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "subc/checking/checkpoint.hpp"
#include "subc/checking/trace_jsonl.hpp"

namespace subc {
namespace {

// Numerals that sit on the edges the loaders must police: empty, signed,
// int and int64 boundaries and just past them, and non-decimal spellings.
constexpr std::string_view kEdgeNumerals[] = {
    "",
    "0",
    "-",
    "-0",
    "-1",
    "+1",
    "1e3",
    "0x10",
    "2147483647",
    "2147483648",
    "4294967296",
    "9223372036854775806",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "99999999999999999999999",
    "18446744073709551615",
    "18446744073709551616",
};

/// Seeded mutator: each call applies one to three stacked mutations.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(std::string s) {
    const int rounds = 1 + static_cast<int>(pick(3));
    for (int r = 0; r < rounds; ++r) {
      switch (pick(4)) {
        case 0:
          flip_bit(s);
          break;
        case 1:
          truncate(s);
          break;
        case 2:
          insert_byte(s);
          break;
        default:
          splice_digits(s);
          break;
      }
    }
    return s;
  }

 private:
  std::size_t pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

  void flip_bit(std::string& s) {
    if (!s.empty()) {
      s[pick(s.size())] ^= static_cast<char>(1U << pick(8));
    }
  }

  void truncate(std::string& s) { s.resize(pick(s.size() + 1)); }

  void insert_byte(std::string& s) {
    static constexpr char kSpecial[] = {'"', '\\', ',', '}', '{', ':', '[',
                                        ']', '-',  '/', ' ', '\n', '\0', 'u'};
    const char c = pick(2) == 0 ? kSpecial[pick(sizeof kSpecial)]
                                : static_cast<char>(pick(256));
    s.insert(s.begin() + static_cast<std::ptrdiff_t>(pick(s.size() + 1)), c);
  }

  // Replaces one maximal run of decimal digits with an edge numeral.
  void splice_digits(std::string& s) {
    std::vector<std::size_t> starts;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (std::isdigit(static_cast<unsigned char>(s[i])) != 0 &&
          (i == 0 || std::isdigit(static_cast<unsigned char>(s[i - 1])) == 0)) {
        starts.push_back(i);
      }
    }
    if (starts.empty()) {
      return;
    }
    const std::size_t at = starts[pick(starts.size())];
    std::size_t end = at;
    while (end < s.size() &&
           std::isdigit(static_cast<unsigned char>(s[end])) != 0) {
      ++end;
    }
    s.replace(at, end - at, kEdgeNumerals[pick(std::size(kEdgeNumerals))]);
  }

  std::mt19937_64 rng_;
};

/// Runs `load` on `input`: parsing or throwing `SimError` passes; any other
/// exception is a test failure naming the case and the input.
template <typename Load>
void expect_parses_or_sim_error(int case_no, const std::string& input,
                                Load load) {
  try {
    load(input);
  } catch (const SimError&) {
    // Rejected cleanly.
  } catch (const std::exception& e) {
    ADD_FAILURE() << "case " << case_no << ": " << e.what()
                  << "\ninput: " << input;
  } catch (...) {
    ADD_FAILURE() << "case " << case_no << ": non-std exception\ninput: "
                  << input;
  }
}

/// A valid trace with every event kind the writer emits, including
/// escapes, ⊥ values and a crash/recovery pair.
std::string seed_trace() {
  std::ostringstream sink;
  JsonlTraceWriter writer(sink);
  writer.on_run_begin(2);
  writer.on_step(StepEvent{0, 1, Access{3, AccessKind::kWrite}});
  writer.on_choose(1, 3, 2);
  const std::vector<Value> op = {0, 100, -7};
  const std::vector<Value> resp = {kBottom};
  writer.on_invoke(0, 0, 1, op);
  writer.on_invoke(1, 1, 2, op);
  writer.on_crash(1, 4);
  writer.on_recover(1, 6);
  writer.on_respond(0, 0, 5, resp);
  writer.on_violation("bad\n\"quoted\"\tback\\slash \x01");
  writer.on_stuck("stuck execution: step quota (64) exceeded");
  writer.on_run_end(9, true);
  return sink.str();
}

/// A valid snapshot file with every optional field present.
std::string seed_snapshot(const std::string& path) {
  ExplorerSnapshot snap;
  snap.max_executions = 5000;
  snap.max_crashes = 1;
  snap.max_recoveries = 1;
  snap.step_quota = 64;
  snap.reduction = true;
  snap.stateful = true;
  snap.executions = 123;
  snap.pruned = 4;
  snap.reduced = 56;
  snap.crashed = 7;
  snap.recovered = 3;
  snap.stuck = 2;
  snap.stateful_cuts = 11;
  snap.violation = "linearizability violated:\n\"p0\" -> 1";
  snap.violating_trace = {ReplayDriver::Decision{0, 2, 0b11, 0, false},
                          ReplayDriver::Decision{1, 2, 0b11, 0b1, true}};
  snap.stuck_message = "stuck execution: step quota (64) exceeded";
  snap.stuck_trace = {ReplayDriver::Decision{1, 2, 0b11, 0, false}};
  snap.prefix = {ReplayDriver::Decision{0, 3, 0b111, 0b100, false},
                 ReplayDriver::Decision{1, 2, 0b1, 0, false, true}};
  save_snapshot(path, snap);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(LoaderFuzz, TraceParserParsesOrThrowsSimErrorOnMutatedTraces) {
  const std::string trace = seed_trace();
  ASSERT_NO_THROW(parse_trace_jsonl(trace));
  std::vector<std::string> lines;
  std::istringstream in(trace);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 11U);
  Mutator mutator(0x7eace5eedULL);
  constexpr int kCases = 20000;
  for (int c = 0; c < kCases; ++c) {
    // Mostly one mutated line (so the mutation reaches the field parsers),
    // sometimes the whole trace (so line structure and the invoke/respond
    // pairing get mutated too).
    const std::string& base = c % 4 == 0 ? trace : lines[c % lines.size()];
    expect_parses_or_sim_error(c, mutator.mutate(base),
                               [](const std::string& s) {
                                 (void)parse_trace_jsonl(s);
                               });
  }
}

TEST(LoaderFuzz, SnapshotLoaderParsesOrThrowsSimErrorOnMutatedFiles) {
  const std::string path = "subc_ckpt_loader_fuzz.jsonl";
  const std::string snapshot = seed_snapshot(path);
  ASSERT_NO_THROW(load_snapshot(path));
  Mutator mutator(0xc4ec6b0147ULL);
  constexpr int kCases = 3000;
  for (int c = 0; c < kCases; ++c) {
    expect_parses_or_sim_error(c, mutator.mutate(snapshot),
                               [&path](const std::string& s) {
                                 {
                                   std::ofstream out(path, std::ios::trunc |
                                                               std::ios::binary);
                                   out << s;
                                 }
                                 (void)load_snapshot(path);
                               });
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace subc
