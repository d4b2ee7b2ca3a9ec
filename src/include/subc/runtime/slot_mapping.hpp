// Page-mapped slot arrays for the lock-free open-addressing tables: the
// explorer's visited set (runtime/hashing.hpp) and the sharded service's
// decision memo (runtime/service.hpp). Both keep plain words on one
// anonymous private mapping and reach them through `std::atomic_ref`;
// they differ only in when the mapping's pages are committed.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>

#include <sys/mman.h>
#include <unistd.h>

namespace subc::detail {

/// Slot count for an open-addressing table of `capacity` keys: the next
/// power of two (at least 64) at most ~70% loaded. Tables stop inserting at
/// `slots * 7 / 10` keys.
inline std::size_t table_slots(std::size_t capacity) noexcept {
  std::size_t slots = 64;
  while (slots * 7 < capacity * 10) {
    slots *= 2;
  }
  return slots;
}

/// When a `SlotMapping` commits its pages.
enum class Commit {
  /// Zero pages, each committed by its first write, never huge
  /// (`MADV_NOHUGEPAGE`). Resident memory follows the slots a table
  /// touches; where transparent huge pages are always on, a first touch
  /// would otherwise zero a whole 2 MiB page and scattered keys would commit
  /// the full table. For tables that usually stay sparse: `VisitedSet`.
  kOnTouch,
  /// Every page committed by the constructor, huge-page advised
  /// (`MADV_HUGEPAGE`), so no page fault is left for the table's users.
  /// For tables that fill up on a timed path: `DecisionMemo`. With
  /// transparent huge pages on (`always` or `madvise`), a 48 MiB memo
  /// commits as 24 zeroed 2 MiB pages instead of 12,288 faulted 4 KiB ones.
  kUpFront,
};

/// A fixed array of `count` zero-filled `Slot`s on one anonymous private
/// mapping, unmapped on destruction. Slots are never constructed: they are
/// plain words the owning table reads and writes through `std::atomic_ref`
/// (constructing `std::atomic` slots would write every one of them). The
/// madvise advice is a hint: where the kernel ignores it the table works
/// the same, and `kUpFront` then commits 4 KiB pages one fault at a time.
/// `calloc` is no substitute for the mapping: after glibc frees one large
/// block it raises its mmap threshold, and later tables come from the heap
/// and are `memset` again. Shallow const, like a pointer.
template <typename Slot>
class SlotMapping {
  static_assert(std::is_trivial_v<Slot>,
                "slots live in raw zero pages and are never constructed");

 public:
  /// Throws `std::bad_alloc` when the array cannot be mapped.
  SlotMapping(std::size_t count, Commit commit) : count_(count) {
    void* mem = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      throw std::bad_alloc();
    }
    ::madvise(mem, bytes(),
              commit == Commit::kUpFront ? MADV_HUGEPAGE : MADV_NOHUGEPAGE);
    slots_ = static_cast<Slot*>(mem);
    if (commit == Commit::kUpFront) {
      // A write, not a read: reading would only map the shared zero page.
      volatile unsigned char* const base = static_cast<unsigned char*>(mem);
      const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
      for (std::size_t off = 0; off < bytes(); off += page) {
        base[off] = 0;
      }
    }
  }

  ~SlotMapping() { ::munmap(slots_, bytes()); }

  SlotMapping(const SlotMapping&) = delete;
  SlotMapping& operator=(const SlotMapping&) = delete;

  [[nodiscard]] Slot& operator[](std::size_t i) const noexcept {
    return slots_[i];
  }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

 private:
  [[nodiscard]] std::size_t bytes() const noexcept {
    return count_ * sizeof(Slot);
  }

  Slot* slots_ = nullptr;
  std::size_t count_ = 0;
};

}  // namespace subc::detail
