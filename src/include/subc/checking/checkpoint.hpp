// Explorer campaign snapshots: durable checkpoint/resume for long searches.
//
// A multi-hour exhaustive campaign that dies at 90% must be resumable. The
// explorer (runtime/explorer.hpp) periodically serializes its progress — the
// canonical-prefix watermark (tallies over every canonical event completed so
// far), the decision prefix the search continues from, and the first stuck
// diagnostic — into a two-line JSONL snapshot:
//
//   {"kind":"header","version":1,"max_executions":N,"max_crashes":F,
//    "max_recoveries":R,"step_quota":Q,"reduction":"sleep","stateful":false}
//   {"kind":"state","executions":N,"pruned":N,"reduced":N,"crashed":N,
//    "recovered":N,"stuck":N,"stateful_cuts":N,"done":false,
//    "complete":false,"prefix":"0/3/7/0/0/0 1/4/0/0/1/0"}
//
// `Explorer::resume(body, path, opts)` reloads a snapshot and continues the
// search from the watermark, producing the bit-identical final `Result` an
// uninterrupted run reports (see docs/explorer.md). Snapshots are written
// durably: staged in a temp file that is fsync'd, renamed over the old
// snapshot, and the rename fsync'd through the directory (with a bounded
// retry on transient filesystem failure) — so neither a process crash nor
// an OS crash mid-write loses the previous snapshot, and a returned
// `save_snapshot` survives both. Decision strings are encoded one token per
// decision, "chosen/arity/enabled/sleep/crashflag/recoverflag", preserving
// the reduction metadata and crash/recovery flags replay depends on — this
// is also the wire format the distributed-sharding roadmap item will ship
// work units in. Every field of both lines is required; tokens and lines
// of any other shape are rejected with `SimError`.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "subc/checking/trace_jsonl.hpp"
#include "subc/runtime/scheduler.hpp"
#include "subc/runtime/value.hpp"

namespace subc {

/// The canonical tallies of an exhaustive search, summed with `+=`: per
/// subtree, per frontier event, over a snapshot's watermark, and into the
/// final `Explorer::Result`. The field names are the snapshot's on-disk keys.
struct ExplorerTally {
  std::int64_t executions = 0;
  std::int64_t pruned = 0;
  std::int64_t reduced = 0;
  std::int64_t crashed = 0;    ///< executions in which >= 1 crash landed
  std::int64_t recovered = 0;  ///< executions in which >= 1 recovery landed
  std::int64_t stuck = 0;      ///< executions cut by the step-quota watchdog
  std::int64_t stateful_cuts = 0;  ///< subtrees cut by stateful exploration

  ExplorerTally& operator+=(const ExplorerTally& o) noexcept {
    executions += o.executions;
    pruned += o.pruned;
    reduced += o.reduced;
    crashed += o.crashed;
    recovered += o.recovered;
    stuck += o.stuck;
    stateful_cuts += o.stateful_cuts;
    return *this;
  }
};

/// A serializable picture of an exploration in flight (or finished): the
/// tallies over the completed canonical prefix of the search, plus the
/// option echo and where to continue. The option echo pins the search
/// parameters: resuming under different options would silently change what
/// "the rest of the tree" means, so `Explorer::resume` rejects mismatches.
struct ExplorerSnapshot : ExplorerTally {
  // --- option echo ---
  std::int64_t max_executions = 0;
  int max_crashes = 0;
  int max_recoveries = 0;
  std::int64_t step_quota = 0;
  bool reduction = false;  ///< sleep-set reduction on?
  /// Stateful exploration on? Echoed (and matched on resume) because the
  /// visited set itself is *not* serialized: a resumed stateful search
  /// restarts with a cold set (the documented cold-restart rule, see
  /// docs/explorer.md) — still sound and verdict-identical, but its
  /// execution tallies may exceed the uninterrupted run's.
  bool stateful = false;

  /// True when the search finished (tree exhausted, budget spent, or a
  /// violation found); `prefix` is empty and meaningless then.
  bool done = false;
  bool complete = false;
  std::optional<std::string> violation;
  std::vector<ReplayDriver::Decision> violating_trace;
  std::optional<std::string> stuck_message;
  std::vector<ReplayDriver::Decision> stuck_trace;
  /// The decision prefix the search continues from (the next prefix the
  /// serial restart-DFS would run). Empty when `done`.
  std::vector<ReplayDriver::Decision> prefix;
};

/// Renders a decision string as snapshot tokens
/// ("chosen/arity/enabled/sleep/crashflag/recoverflag", space-separated).
inline std::string encode_decisions(
    std::span<const ReplayDriver::Decision> trace) {
  std::string out;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) {
      out += ' ';
    }
    out += std::to_string(trace[i].chosen);
    out += '/';
    out += std::to_string(trace[i].arity);
    out += '/';
    out += std::to_string(trace[i].enabled);
    out += '/';
    out += std::to_string(trace[i].sleep);
    out += '/';
    out += trace[i].crash ? '1' : '0';
    out += '/';
    out += trace[i].recover ? '1' : '0';
  }
  return out;
}

/// Parses `encode_decisions` output. Throws `SimError` on any token that is
/// not exactly six '/'-separated fields of plain decimal digits: empty
/// fields, signs, values overflowing the field's type, flags other than
/// 0/1, and chosen >= arity are all rejected.
inline std::vector<ReplayDriver::Decision> decode_decisions(
    const std::string& text) {
  std::vector<ReplayDriver::Decision> out;
  const char* p = text.c_str();
  const auto fail = [&text](const char* what) {
    throw SimError(std::string("decode_decisions: ") + what + " in: " + text);
  };
  // One unsigned decimal field no larger than `max`, followed by `end`.
  const auto field = [&](std::uint64_t max, char end) {
    const char* start = p;
    std::uint64_t v = 0;
    for (; *p >= '0' && *p <= '9'; ++p) {
      const auto digit = static_cast<std::uint64_t>(*p - '0');
      if (digit > max || v > (max - digit) / 10) {
        fail("out-of-range field");
      }
      v = v * 10 + digit;
    }
    if (p == start) {
      fail("empty or signed field");
    }
    if (*p != end && !(end == ' ' && *p == '\0')) {
      fail("malformed decision token");
    }
    if (*p != '\0') {
      ++p;
    }
    return v;
  };
  constexpr std::uint64_t kU32 = 0xffff'ffffU;
  constexpr std::uint64_t kU64 = ~std::uint64_t{0};
  while (*p != '\0') {
    while (*p == ' ') {
      ++p;
    }
    if (*p == '\0') {
      break;
    }
    ReplayDriver::Decision d;
    d.chosen = static_cast<std::uint32_t>(field(kU32, '/'));
    d.arity = static_cast<std::uint32_t>(field(kU32, '/'));
    d.enabled = field(kU64, '/');
    d.sleep = field(kU64, '/');
    d.crash = field(1, '/') == 1;
    d.recover = field(1, ' ') == 1;
    if (d.arity < 1 || d.chosen >= d.arity) {
      fail("inconsistent decision");
    }
    out.push_back(d);
  }
  return out;
}

namespace checkpoint_detail {

/// A required boolean field: `"key":true` or `"key":false`.
inline bool bool_field(std::string_view line, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":";
  const std::size_t at = line.find(pat);
  if (at != std::string_view::npos) {
    const std::string_view rest = line.substr(at + pat.size());
    if (rest.starts_with("true")) {
      return true;
    }
    if (rest.starts_with("false")) {
      return false;
    }
  }
  throw SimError("load_snapshot: missing or non-boolean field \"" +
                 std::string(key) + "\" in: " + std::string(line));
}

inline bool has_field(std::string_view line, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":";
  return line.find(pat) != std::string_view::npos;
}

// One durable write attempt: `text` into `tmp` (fsync'd), renamed over
// `path`, the rename fsync'd through `path`'s directory. Returns the failing
// stage (errno set), or nullptr on success.
inline const char* write_durably(const std::string& path,
                                 const std::string& tmp,
                                 const std::string& text) {
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    return "open";
  }
  const char* stage = nullptr;
  for (std::size_t off = 0; off < text.size() && stage == nullptr;) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno != EINTR) {
      stage = "write";
    }
  }
  if (stage == nullptr && ::fsync(fd) != 0) {
    stage = "fsync";
  }
  const int saved = errno;
  if (::close(fd) != 0 && stage == nullptr) {
    return "close";
  }
  if (stage != nullptr) {
    errno = saved;
    return stage;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return "rename";
  }
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                          : slash == 0               ? std::string("/")
                                                     : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) {
    return "open directory";
  }
  const int synced = ::fsync(dfd);
  const int dir_errno = errno;
  ::close(dfd);
  if (synced != 0) {
    errno = dir_errno;
    return "fsync directory";
  }
  return nullptr;
}

}  // namespace checkpoint_detail

/// Serializes `snap` to `path` durably: the snapshot is staged as
/// `<path>.tmp`, fsync'd, renamed over `path`, and the rename made durable by
/// fsync'ing the containing directory. Readers — and a resume after a
/// process or OS crash at any point — see either the previous snapshot or
/// the new one, complete. Transient filesystem failures (any stage) are
/// retried with bounded backoff — three attempts, sleeping 1/4/16 ms between
/// them — before a `SimError` carrying a structured diagnostic (attempts
/// made, failing stage, errno) is thrown. The explorer catches failures of
/// *periodic* snapshots so an exploration campaign survives a briefly
/// unwritable checkpoint directory; the final snapshot's failure still
/// propagates.
inline void save_snapshot(const std::string& path,
                          const ExplorerSnapshot& snap) {
  namespace jd = jsonl_detail;
  std::string text = "{\"kind\":\"header\",\"version\":1,\"max_executions\":" +
                     std::to_string(snap.max_executions) +
                     ",\"max_crashes\":" + std::to_string(snap.max_crashes) +
                     ",\"max_recoveries\":" +
                     std::to_string(snap.max_recoveries) +
                     ",\"step_quota\":" + std::to_string(snap.step_quota) +
                     ",\"reduction\":\"";
  text += snap.reduction ? "sleep" : "none";
  text += "\",\"stateful\":";
  text += snap.stateful ? "true" : "false";
  text += "}\n";
  text += "{\"kind\":\"state\",\"executions\":" +
          std::to_string(snap.executions) +
          ",\"pruned\":" + std::to_string(snap.pruned) +
          ",\"reduced\":" + std::to_string(snap.reduced) +
          ",\"crashed\":" + std::to_string(snap.crashed) +
          ",\"recovered\":" + std::to_string(snap.recovered) +
          ",\"stuck\":" + std::to_string(snap.stuck) +
          ",\"stateful_cuts\":" + std::to_string(snap.stateful_cuts) +
          ",\"done\":";
  text += snap.done ? "true" : "false";
  text += ",\"complete\":";
  text += snap.complete ? "true" : "false";
  if (snap.violation) {
    text += ",\"violation\":\"";
    jd::append_escaped(text, *snap.violation);
    text += "\",\"violating_trace\":\"";
    text += encode_decisions(snap.violating_trace);
    text += '"';
  }
  if (snap.stuck_message) {
    text += ",\"stuck_message\":\"";
    jd::append_escaped(text, *snap.stuck_message);
    text += "\",\"stuck_trace\":\"";
    text += encode_decisions(snap.stuck_trace);
    text += '"';
  }
  text += ",\"prefix\":\"";
  text += encode_decisions(snap.prefix);
  text += "\"}\n";

  const std::string tmp = path + ".tmp";
  constexpr int kAttempts = 3;
  constexpr int kBackoffMs[kAttempts] = {1, 4, 16};
  const char* stage = nullptr;
  int saved_errno = 0;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    errno = 0;
    stage = checkpoint_detail::write_durably(path, tmp, text);
    if (stage == nullptr) {
      return;
    }
    saved_errno = errno;
    if (attempt < kAttempts) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(kBackoffMs[attempt - 1]));
    }
  }
  throw SimError("save_snapshot: " + path + " failed after " +
                 std::to_string(kAttempts) + " attempts (stage: " + stage +
                 ", errno: " + std::to_string(saved_errno) + " — " +
                 std::strerror(saved_errno) + ")");
}

/// Loads a snapshot written by `save_snapshot`. Throws `SimError` when the
/// file is missing or malformed, including when a field is absent.
inline ExplorerSnapshot load_snapshot(const std::string& path) {
  namespace jd = jsonl_detail;
  namespace cd = checkpoint_detail;
  std::ifstream in(path);
  if (!in) {
    throw SimError("load_snapshot: cannot open " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  ExplorerSnapshot snap;
  bool saw_header = false;
  bool saw_state = false;
  std::string line;
  while (std::getline(buffer, line)) {
    if (line.empty()) {
      continue;
    }
    const std::string kind = jd::string_field(line, "kind");
    if (kind == "header") {
      const std::int64_t version = jd::int_field(line, "version");
      if (version != 1) {
        throw SimError("load_snapshot: unsupported snapshot version " +
                       std::to_string(version));
      }
      snap.max_executions = jd::int_field(line, "max_executions");
      constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
      snap.max_crashes =
          static_cast<int>(jd::int_field(line, "max_crashes", 0, kIntMax));
      snap.max_recoveries = static_cast<int>(
          jd::int_field(line, "max_recoveries", 0, kIntMax));
      snap.step_quota = jd::int_field(line, "step_quota");
      snap.reduction = jd::string_field(line, "reduction") == "sleep";
      snap.stateful = cd::bool_field(line, "stateful");
      saw_header = true;
    } else if (kind == "state") {
      snap.executions = jd::int_field(line, "executions");
      snap.pruned = jd::int_field(line, "pruned");
      snap.reduced = jd::int_field(line, "reduced");
      snap.crashed = jd::int_field(line, "crashed");
      snap.recovered = jd::int_field(line, "recovered");
      snap.stuck = jd::int_field(line, "stuck");
      snap.stateful_cuts = jd::int_field(line, "stateful_cuts");
      snap.done = cd::bool_field(line, "done");
      snap.complete = cd::bool_field(line, "complete");
      if (cd::has_field(line, "violation")) {
        snap.violation = jd::string_field(line, "violation");
        snap.violating_trace =
            decode_decisions(jd::string_field(line, "violating_trace"));
      }
      if (cd::has_field(line, "stuck_message")) {
        snap.stuck_message = jd::string_field(line, "stuck_message");
        snap.stuck_trace =
            decode_decisions(jd::string_field(line, "stuck_trace"));
      }
      snap.prefix = decode_decisions(jd::string_field(line, "prefix"));
      saw_state = true;
    } else {
      throw SimError("load_snapshot: unknown line kind \"" + kind +
                     "\" in " + path);
    }
  }
  if (!saw_header || !saw_state) {
    throw SimError("load_snapshot: truncated snapshot in " + path);
  }
  return snap;
}

}  // namespace subc
