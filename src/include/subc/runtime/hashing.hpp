// Small non-cryptographic hashing primitives shared by the checker's
// fingerprint memo, spec `hash(State)` hooks (objects layer), and the
// explorer's stateful-search visited set. Kept in the runtime layer so all
// three may include them without a layering inversion.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "subc/runtime/slot_mapping.hpp"

namespace subc::detail {

/// splitmix64 finalizer: a cheap, well-distributed 64→64 mixer.
inline constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over bytes, for hashing string memo keys.
inline constexpr std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// --- World-state fingerprinting (stateful exploration) --------------------
//
// Domain-separation salts for the kernel's incremental world fingerprint.
// Each fold event mixes one of these so that, e.g., "proc 2 took a step"
// and "proc 2 observed value 1" cannot alias. Arbitrary odd constants;
// pinned by hashing_test so they cannot drift silently (a drift would
// invalidate nothing semantically but would un-pin serial cut counts).
inline constexpr std::uint64_t kFpProcSalt = 0x1b873593a4093822ULL;
inline constexpr std::uint64_t kFpStepSalt = 0x7feb352d8a91b1d3ULL;
inline constexpr std::uint64_t kFpObserveSalt = 0x85ebca6bc2b2ae35ULL;
inline constexpr std::uint64_t kFpObjectSalt = 0x27d4eb2f165667c5ULL;
inline constexpr std::uint64_t kFpChooseSalt = 0x165667b19e3779f9ULL;
inline constexpr std::uint64_t kFpDecideSalt = 0x9e3779b185ebca87ULL;
inline constexpr std::uint64_t kFpDoneSalt = 0xc2b2ae3d27d4eb4fULL;
inline constexpr std::uint64_t kFpHungSalt = 0xd6e8feb86659fd93ULL;
inline constexpr std::uint64_t kFpCrashSalt = 0xa0761d6478bd642fULL;
/// Recovery fold (crash-and-restart exploration): a recovered process folds
/// `mix64(kFpRecoverSalt ^ incarnation)` so that worlds differing only in
/// how many times a process has restarted can never alias — each restart is
/// a distinct term, keeping stateful cuts sound across the recovery axis.
inline constexpr std::uint64_t kFpRecoverSalt = 0x2545f4914f6cdd1dULL;
inline constexpr std::uint64_t kFpSleepSalt = 0xe7037ed1a0b428dbULL;
inline constexpr std::uint64_t kFpRunSalt = 0x589965cc75374cc3ULL;
/// Instance-domain salt (multi-instance runtime, runtime/instance.hpp):
/// every logical instance folds `mix64(instance_id ^ kFpInstanceSalt)` into
/// its fingerprints, so two instances with identical local histories can
/// never alias in a shared memo or visited set.
inline constexpr std::uint64_t kFpInstanceSalt = 0x8ebc6af09c88c6e3ULL;
/// Request-domain salt (sharded agreement service, runtime/service.hpp):
/// a client-supplied logical-request fingerprint folds through this salt to
/// form its key in the cross-shard decided-request dedup memo, so request
/// keys live in their own domain and can never alias instance domains.
inline constexpr std::uint64_t kFpRequestSalt = 0x4cf5ad432745937fULL;

/// The fingerprint domain of instance `id`: the per-instance term every
/// instance-level fingerprint folds (see InstanceTable::world_fingerprint).
inline constexpr std::uint64_t fp_instance_domain(std::uint64_t id) noexcept {
  return mix64(id ^ kFpInstanceSalt);
}

/// The dedup-memo key of logical request `request_fp` (sharded service):
/// the domain-folded form every shard probes and records, mirroring
/// `fp_instance_domain` for instances.
inline constexpr std::uint64_t fp_request_domain(
    std::uint64_t request_fp) noexcept {
  return mix64(request_fp ^ kFpRequestSalt);
}

/// Value folds for object state hashes. `fp_of` is overloaded per state
/// shape; objects whose state has no overload simply do not report a
/// commit, which poisons the fingerprint for that execution (sound — the
/// explorer then takes no stateful cuts on it).
inline constexpr std::uint64_t fp_of(std::int64_t v) noexcept {
  return mix64(static_cast<std::uint64_t>(v));
}

inline std::uint64_t fp_of(const std::vector<std::int64_t>& vs) noexcept {
  std::uint64_t h = 0x6a09e667f3bcc909ULL;
  for (const std::int64_t v : vs) {
    h = mix64(h ^ static_cast<std::uint64_t>(v));
  }
  return h;
}

/// Fixed-capacity concurrent open-addressing set of 64-bit fingerprints —
/// the explorer's visited-(state, sleep-set) cache. The single-threaded
/// `FingerprintSet` in checking/linearizability.hpp is the shape model
/// (0-sentinel empty slots, 0 remapped to 1, linear probing); this variant
/// trades growth for lock-freedom: slots are accessed atomically, insertion
/// is a CAS race whose loser re-reads the slot, and when the table reaches
/// its load limit further probes report "not seen" without inserting. That
/// saturation rule is sound — the explorer just stops taking cuts — and
/// keeps the memory bound the `stateful_capacity` knob promises.
///
/// The slot array is a `SlotMapping` (runtime/slot_mapping.hpp) with the
/// commit-on-touch policy: the kernel hands out zero pages and commits each
/// one on its first write, so constructing a default-capacity table (2^21
/// slots, 16 MiB of address space) costs tens of microseconds and resident
/// memory grows with the 4 KiB pages the search actually touches, up to the
/// same bound. On 4-CPU x86-64 VMs a first touch cost 1.6-6 us per page,
/// against 4-6 ms to zero the whole array eagerly, so zero pages win below
/// roughly 1,000-3,000 touched pages of 4,096; a small search touches about
/// one page per state it records. (The service's `DecisionMemo` fills up on
/// a timed path instead, and takes the commit-up-front policy.)
class VisitedSet {
 public:
  /// `capacity` = maximum number of distinct keys the set will hold.
  /// Slots are sized to the next power of two at most ~70% loaded.
  /// Throws `std::bad_alloc` when the slot array cannot be mapped.
  explicit VisitedSet(std::size_t capacity)
      : slots_(table_slots(capacity), Commit::kOnTouch),
        max_size_(slots_.size() * 7 / 10) {}

  /// Returns true iff `key` was already present ("seen — cut here").
  /// Otherwise tries to insert it and returns false; when the table is
  /// saturated the key is dropped (still returns false: never seen).
  /// Exactly one caller wins a concurrent insert race for the same key,
  /// so two executions probing the same state cannot both cut on it.
  bool check_and_insert(std::uint64_t key) noexcept {
    key += (key == 0);
    const std::uint64_t mask = slots_.size() - 1;
    for (std::uint64_t i = key & mask;; i = (i + 1) & mask) {
      std::atomic_ref<std::uint64_t> slot(slots_[i]);
      std::uint64_t cur = slot.load(std::memory_order_relaxed);
      if (cur == key) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      if (cur == 0) {
        if (size_.load(std::memory_order_relaxed) >= max_size_) {
          return false;  // saturated: sound, just no more cuts
        }
        if (slot.compare_exchange_strong(cur, key,
                                         std::memory_order_relaxed)) {
          size_.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        if (cur == key) {  // lost the race to an identical probe
          hits_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        // Lost to a different key: keep probing from the next slot.
      }
    }
  }

  [[nodiscard]] std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(size_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::int64_t hits() const noexcept {
    return static_cast<std::int64_t>(hits_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] bool saturated() const noexcept {
    return size_.load(std::memory_order_relaxed) >= max_size_;
  }

 private:
  static_assert(std::atomic_ref<std::uint64_t>::is_always_lock_free);

  SlotMapping<std::uint64_t> slots_;
  std::size_t max_size_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> hits_{0};
};

}  // namespace subc::detail
