// Shared helpers for the experiment binaries: machine-readable JSON result
// files (BENCH_<ID>.json, written into the current working directory so the
// perf trajectory can be tracked across PRs), wall-clock timing, and the
// worker-thread count used when benches drive the parallel explorer.
//
// The JSON emitter is deliberately tiny: flat objects whose values are
// numbers, strings, booleans, nested objects, or arrays of objects — enough
// for result grids, and zero dependencies.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "subc/checking/checkpoint.hpp"
#include "subc/runtime/arena.hpp"

namespace subc_bench {

class Json {
 public:
  Json& set(const std::string& key, const std::string& v) {
    return put(key, quote(v));
  }
  Json& set(const std::string& key, const char* v) {
    return put(key, quote(v));
  }
  Json& set(const std::string& key, bool v) {
    return put(key, v ? "true" : "false");
  }
  Json& set(const std::string& key, double v) {
    std::ostringstream os;
    os << v;
    return put(key, os.str());
  }
  Json& set(const std::string& key, std::int64_t v) {
    return put(key, std::to_string(v));
  }
  Json& set(const std::string& key, int v) {
    return set(key, static_cast<std::int64_t>(v));
  }
  Json& set(const std::string& key, long long v) {
    return set(key, static_cast<std::int64_t>(v));
  }
  Json& set(const std::string& key, const Json& v) { return put(key, v.str()); }
  Json& set(const std::string& key, const std::vector<std::int64_t>& xs) {
    std::string out = "[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += std::to_string(xs[i]);
    }
    out += "]";
    return put(key, std::move(out));
  }
  Json& set(const std::string& key, const std::vector<Json>& rows) {
    std::string out = "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += rows[i].str();
    }
    out += "]";
    return put(key, std::move(out));
  }

  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += quote(fields_[i].first) + ": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\t':
          out += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += "\"";
    return out;
  }

  Json& put(const std::string& key, std::string encoded) {
    fields_.emplace_back(key, std::move(encoded));
    return *this;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Stamps a throughput cell: `executions` completed in `elapsed_ms` of wall
/// clock → `executions_per_sec` (0 when nothing ran or no time passed).
/// This is the headline number the perf trajectory tracks across PRs.
inline void set_rate_fields(Json& json, std::int64_t executions,
                            double elapsed_ms) {
  json.set("executions", executions);
  json.set("elapsed_ms", elapsed_ms);
  json.set("executions_per_sec",
           elapsed_ms > 0.0
               ? static_cast<double>(executions) / (elapsed_ms / 1000.0)
               : 0.0);
}

/// The canonical tallies of the exhaustive searches a bench ran, as one
/// `search` cell: the `ExplorerTally` sum of their `Explorer::Result`s
/// (executions, reduced_subtrees, crashed/recovered/stuck executions,
/// stateful cuts) plus the distinct stateful states, and
/// `reduction_factor` = (executions + reduced_subtrees) / executions. Each
/// skipped subtree holds at least one execution, so the factor lower-bounds
/// the raw/reduced execution-count ratio. Only benches that drive the
/// explorer stamp it.
inline Json search_tally_cell(const subc::ExplorerTally& t,
                              std::int64_t stateful_states = 0) {
  Json cell;
  cell.set("executions", t.executions)
      .set("reduced_subtrees", t.reduced)
      .set("reduction_factor",
           t.executions > 0 ? static_cast<double>(t.executions + t.reduced) /
                                  static_cast<double>(t.executions)
                            : 1.0)
      .set("crashed_executions", t.crashed)
      .set("recovered_executions", t.recovered)
      .set("stuck_executions", t.stuck)
      .set("stateful_cuts", t.stateful_cuts)
      .set("stateful_states", stateful_states);
  return cell;
}

/// Allocation-counter snapshot (`subc::alloc_counters()`): arena growth and
/// reuse plus fiber-stack pool hits across everything the bench ran so far.
/// Reuse counters climbing while chunk/alloc counters stay flat is the
/// allocation-free hot path working as designed.
inline Json alloc_counter_cell(const subc::AllocCounters& c) {
  Json cell;
  cell.set("arena_chunks", static_cast<std::int64_t>(c.arena_chunks));
  cell.set("arena_bytes", static_cast<std::int64_t>(c.arena_bytes));
  cell.set("arena_reuses", static_cast<std::int64_t>(c.arena_reuses));
  cell.set("fiber_stack_reuses",
           static_cast<std::int64_t>(c.fiber_stack_reuses));
  cell.set("fiber_stack_allocs",
           static_cast<std::int64_t>(c.fiber_stack_allocs));
  cell.set("stepped_blocks_carved",
           static_cast<std::int64_t>(c.stepped_blocks_carved));
  cell.set("stepped_block_reuses",
           static_cast<std::int64_t>(c.stepped_block_reuses));
  cell.set("stepped_block_bytes",
           static_cast<std::int64_t>(c.stepped_block_bytes));
  cell.set("instance_blocks_carved",
           static_cast<std::int64_t>(c.instance_blocks_carved));
  cell.set("instance_block_reuses",
           static_cast<std::int64_t>(c.instance_block_reuses));
  cell.set("instance_block_bytes",
           static_cast<std::int64_t>(c.instance_block_bytes));
  return cell;
}

inline Json alloc_counter_cell() {
  return alloc_counter_cell(subc::alloc_counters());
}

/// Writes `json` to `path` (+ trailing newline), stamping the process-wide
/// allocation counters into an `alloc_counters` cell first so every
/// BENCH_<ID>.json carries the allocator telemetry without per-bench
/// plumbing. Returns false on IO error.
inline bool write_json(const std::string& path, const Json& json) {
  Json stamped = json;
  stamped.set("alloc_counters", alloc_counter_cell());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  const std::string body = stamped.str() + "\n";
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

/// Worker threads for bench runs: $SUBC_BENCH_THREADS when set, otherwise
/// one per hardware thread.
inline int bench_threads() {
  if (const char* env = std::getenv("SUBC_BENCH_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) {
      return n;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Monotonic wall-clock stopwatch in milliseconds.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace subc_bench
