// JSONL trace export / import.
//
// `JsonlTraceWriter` is a TraceObserver (runtime/observer.hpp) that streams
// every kernel and history event as one JSON object per line — a portable,
// grep-able record of a run that survives the process. `parse_trace_jsonl`
// reads the format back and reconstructs the operation history with its
// original timestamps, so an exported run replays straight into the
// space-time renderer:
//
//   std::ostringstream sink;
//   JsonlTraceWriter writer(sink);
//   run_one(body, policy, &writer);
//   const ParsedTrace t = parse_trace_jsonl(sink.str());
//   std::cout << render_history(t.history);
//
// Event lines (fields in fixed order, one event per line):
//   {"ev":"run_begin","procs":3}
//   {"ev":"step","pid":1,"step":4,"obj":2,"kind":"write"}
//   {"ev":"choose","pid":0,"arity":3,"chosen":1}
//   {"ev":"crash","pid":2,"step":7}
//   {"ev":"recover","pid":2,"step":11}
//   {"ev":"invoke","pid":0,"handle":0,"t":3,"op":[0,100]}
//   {"ev":"respond","pid":0,"handle":0,"t":9,"resp":[102]}
//   {"ev":"violation","msg":"..."}
//   {"ev":"stuck","msg":"..."}
//   {"ev":"run_end","steps":17,"quiescent":true}
// ⊥ values travel as the INT64_MIN integer. The parser is written for this
// writer's output: fields it does not know are ignored, malformed lines
// throw `SimError`.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "subc/runtime/history.hpp"
#include "subc/runtime/observer.hpp"
#include "subc/runtime/value.hpp"

namespace subc {

namespace jsonl_detail {

inline void append_escaped(std::string& out, std::string_view s) {
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
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

inline void append_values(std::string& out, std::span<const Value> vs) {
  out += '[';
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i) {
      out += ',';
    }
    out += std::to_string(vs[i]);
  }
  out += ']';
}

inline const char* kind_name(AccessKind kind) {
  switch (kind) {
    case AccessKind::kRead:
      return "read";
    case AccessKind::kWrite:
      return "write";
    case AccessKind::kRmw:
      return "rmw";
    case AccessKind::kChoose:
      return "choose";
    case AccessKind::kUnknown:
      break;
  }
  return "unknown";
}

}  // namespace jsonl_detail

/// Streams every observed event to `out` as JSON lines. Thread-safe: lines
/// from concurrent workers interleave whole, never mid-line — which is also
/// why each event is rendered into one string before the single write.
class JsonlTraceWriter final : public TraceObserver {
 public:
  explicit JsonlTraceWriter(std::ostream& out) : out_(&out) {}

  void on_run_begin(int num_processes) override {
    write("{\"ev\":\"run_begin\",\"procs\":" + std::to_string(num_processes) +
          "}");
  }

  void on_step(const StepEvent& event) override {
    std::string line = "{\"ev\":\"step\",\"pid\":" + std::to_string(event.pid) +
                       ",\"step\":" + std::to_string(event.step) +
                       ",\"obj\":" + std::to_string(event.access.object) +
                       ",\"kind\":\"";
    line += jsonl_detail::kind_name(event.access.kind);
    line += "\"}";
    write(line);
  }

  void on_choose(int pid, std::uint32_t arity, std::uint32_t chosen) override {
    write("{\"ev\":\"choose\",\"pid\":" + std::to_string(pid) +
          ",\"arity\":" + std::to_string(arity) +
          ",\"chosen\":" + std::to_string(chosen) + "}");
  }

  void on_crash(int pid, std::int64_t step) override {
    write("{\"ev\":\"crash\",\"pid\":" + std::to_string(pid) +
          ",\"step\":" + std::to_string(step) + "}");
  }

  void on_recover(int pid, std::int64_t step) override {
    write("{\"ev\":\"recover\",\"pid\":" + std::to_string(pid) +
          ",\"step\":" + std::to_string(step) + "}");
  }

  void on_invoke(int pid, std::size_t handle, std::int64_t time,
                 std::span<const Value> op) override {
    std::string line = "{\"ev\":\"invoke\",\"pid\":" + std::to_string(pid) +
                       ",\"handle\":" + std::to_string(handle) +
                       ",\"t\":" + std::to_string(time) + ",\"op\":";
    jsonl_detail::append_values(line, op);
    line += '}';
    write(line);
  }

  void on_respond(int pid, std::size_t handle, std::int64_t time,
                  std::span<const Value> response) override {
    std::string line = "{\"ev\":\"respond\",\"pid\":" + std::to_string(pid) +
                       ",\"handle\":" + std::to_string(handle) +
                       ",\"t\":" + std::to_string(time) + ",\"resp\":";
    jsonl_detail::append_values(line, response);
    line += '}';
    write(line);
  }

  void on_violation(std::string_view message) override {
    std::string line = "{\"ev\":\"violation\",\"msg\":\"";
    jsonl_detail::append_escaped(line, message);
    line += "\"}";
    write(line);
  }

  void on_stuck(std::string_view message) override {
    std::string line = "{\"ev\":\"stuck\",\"msg\":\"";
    jsonl_detail::append_escaped(line, message);
    line += "\"}";
    write(line);
  }

  void on_run_end(std::int64_t total_steps, bool quiescent) override {
    write("{\"ev\":\"run_end\",\"steps\":" + std::to_string(total_steps) +
          ",\"quiescent\":" + (quiescent ? "true" : "false") + "}");
  }

 private:
  void write(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mu_);
    *out_ << line << '\n';
  }

  std::mutex mu_;
  std::ostream* out_;
};

/// One crash event recovered from a trace: process `pid` crashed after
/// `step` scheduler grants had been issued in its run.
struct CrashEvent {
  int pid = -1;
  std::int64_t step = 0;
};

/// One recovery event recovered from a trace: crashed process `pid`
/// restarted after `step` scheduler grants had been issued in its run.
struct RecoverEvent {
  int pid = -1;
  std::int64_t step = 0;
};

/// Everything `parse_trace_jsonl` recovers from an exported trace.
struct ParsedTrace {
  /// The operation history, rebuilt with original pids, arguments,
  /// responses and timestamps — feed it to `render_history` (trace_viz.hpp)
  /// or re-check it for linearizability.
  History history;
  std::vector<std::string> violations;
  /// Crash events in emission order, with pid and step preserved — feed
  /// them to `render_history` via `TraceVizOptions::crashes` so crashed
  /// processes render instead of silently dropping out.
  std::vector<CrashEvent> crash_events;
  /// Recovery events in emission order, with pid and step preserved.
  std::vector<RecoverEvent> recover_events;
  /// Stuck-execution diagnostics (step-quota watchdog) in emission order.
  std::vector<std::string> stuck;
  std::int64_t runs = 0;         ///< run_begin events
  std::int64_t steps = 0;        ///< step events
  std::int64_t chooses = 0;      ///< choose events
  std::int64_t crashes = 0;      ///< crash events
  std::int64_t recoveries = 0;   ///< recover events
  std::int64_t total_steps = 0;  ///< from the last run_end
  bool quiescent = false;        ///< from the last run_end
};

namespace jsonl_detail {

/// Extracts the integer following `"key":` in `line` and checks that it
/// lies in [lo, hi] — the range of the field it is stored into. Throws
/// `SimError` naming the field when the key is absent, when what follows is
/// not an optional '-' and at least one digit ending at ',' or '}', or when
/// the value overflows int64 or the range.
inline std::int64_t int_field(
    std::string_view line, std::string_view key,
    std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
    std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  const std::string pat = "\"" + std::string(key) + "\":";
  const std::size_t at = line.find(pat);
  const auto fail = [&](const char* what) {
    throw SimError("parse_trace_jsonl: " + std::string(what) + " \"" +
                   std::string(key) + "\" in: " + std::string(line));
  };
  if (at == std::string_view::npos) {
    fail("missing field");
  }
  const char* first = line.data() + at + pat.size();
  const char* last = line.data() + line.size();
  std::int64_t v = 0;
  const auto [end, ec] = std::from_chars(first, last, v);
  if (ec == std::errc::invalid_argument ||
      (end != last && *end != ',' && *end != '}')) {
    fail("non-integer field");
  }
  if (ec == std::errc::result_out_of_range || v < lo || v > hi) {
    fail("out-of-range field");
  }
  return v;
}

/// Extracts the string following `"key":"` up to the closing quote,
/// unescaping the writer's escapes.
inline std::string string_field(std::string_view line, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":\"";
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos) {
    throw SimError("parse_trace_jsonl: missing field \"" + std::string(key) +
                   "\" in: " + std::string(line));
  }
  std::string out;
  for (std::size_t i = at + pat.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') {
      return out;
    }
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= line.size()) {
      break;
    }
    switch (line[i]) {
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      case 'r':
        out += '\r';
        break;
      case 'u':
        if (i + 4 < line.size()) {
          out += static_cast<char>(
              std::strtol(std::string(line.substr(i + 1, 4)).c_str(), nullptr,
                          16));
          i += 4;
        }
        break;
      default:
        out += line[i];  // \" and \\ (and anything else, verbatim)
    }
  }
  throw SimError("parse_trace_jsonl: unterminated string in: " +
                 std::string(line));
}

/// Extracts the `[v1,v2,...]` array following `"key":`.
inline std::vector<Value> values_field(std::string_view line,
                                       std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":[";
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos) {
    throw SimError("parse_trace_jsonl: missing field \"" + std::string(key) +
                   "\" in: " + std::string(line));
  }
  std::vector<Value> out;
  const char* p = line.data() + at + pat.size();
  const char* end = line.data() + line.size();
  while (p < end && *p != ']') {
    char* after = nullptr;
    out.push_back(std::strtoll(p, &after, 10));
    if (after == p) {
      throw SimError("parse_trace_jsonl: bad value array in: " +
                     std::string(line));
    }
    p = after;
    if (p < end && *p == ',') {
      ++p;
    }
  }
  return out;
}

}  // namespace jsonl_detail

/// Parses a JSONL trace produced by `JsonlTraceWriter`. History entries are
/// rebuilt by matching respond events to invoke events via their handles
/// (handles are per-source-History; traces interleaving several histories
/// merge into one, which is what the renderer wants anyway).
inline ParsedTrace parse_trace_jsonl(const std::string& text) {
  namespace jd = jsonl_detail;
  ParsedTrace out;
  // source handle -> index in out.history (parallel to HistoryRecorder).
  // A map, not a vector indexed by handle: a hostile handle must not size
  // an allocation.
  std::unordered_map<std::int64_t, std::size_t> handle_map;
  const auto pid_field = [](std::string_view l) {
    return static_cast<int>(
        jd::int_field(l, "pid", 0, std::numeric_limits<int>::max()));
  };
  const auto handle_field = [](std::string_view l) {
    return jd::int_field(l, "handle", 0);
  };
  // A history clock reading: never negative (-1 marks a pending response),
  // and below int64 max so the restored clock can step past it.
  const auto time_field = [](std::string_view l) {
    return jd::int_field(l, "t", 0,
                         std::numeric_limits<std::int64_t>::max() - 1);
  };
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const std::string ev = jd::string_field(line, "ev");
    if (ev == "run_begin") {
      ++out.runs;
    } else if (ev == "step") {
      ++out.steps;
    } else if (ev == "choose") {
      ++out.chooses;
    } else if (ev == "crash") {
      ++out.crashes;
      out.crash_events.push_back(
          CrashEvent{pid_field(line), jd::int_field(line, "step")});
    } else if (ev == "recover") {
      ++out.recoveries;
      out.recover_events.push_back(
          RecoverEvent{pid_field(line), jd::int_field(line, "step")});
    } else if (ev == "invoke") {
      HistoryEntry e;
      e.pid = pid_field(line);
      e.invoked_at = time_field(line);
      e.op = jd::values_field(line, "op");
      handle_map[handle_field(line)] = out.history.restore(std::move(e));
    } else if (ev == "respond") {
      const auto it = handle_map.find(handle_field(line));
      if (it == handle_map.end()) {
        throw SimError("parse_trace_jsonl: respond without invoke: " + line);
      }
      // Completing a restored entry: rebuild it in place with the recorded
      // response and timestamp.
      HistoryEntry e = out.history.entries()[it->second];
      e.response = jd::values_field(line, "resp");
      e.responded_at = time_field(line);
      out.history.amend(it->second, std::move(e));
    } else if (ev == "violation") {
      out.violations.push_back(jd::string_field(line, "msg"));
    } else if (ev == "stuck") {
      out.stuck.push_back(jd::string_field(line, "msg"));
    } else if (ev == "run_end") {
      out.total_steps = jd::int_field(line, "steps");
      out.quiescent = line.find("\"quiescent\":true") != std::string::npos;
    } else {
      throw SimError("parse_trace_jsonl: unknown event \"" + ev +
                     "\" in: " + line);
    }
  }
  return out;
}

}  // namespace subc
