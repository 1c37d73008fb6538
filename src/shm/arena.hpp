// A shared-memory arena: one fixed-size mapping holding every cross-rank data
// structure (copy rings, fastboxes, collective cells, KNEM cookie table,
// bootstrap state).
//
// All structures inside the arena are addressed by BYTE OFFSET, never by
// pointer, and contain only trivially-copyable words accessed through
// std::atomic_ref. That makes the identical layout usable from:
//  - threads of one process  (anonymous MAP_SHARED mapping), and
//  - forked processes        (the mapping is inherited, or shm_open'ed).
//
// NUMA placement: the arena itself is mapped without a memory policy
// (first-touch). Regions whose reader/writer cores are known are carved with
// alloc_pages() and then bound via shm::bind_to_node()/interleave() — see
// shm/numa.hpp for the decision logic and the fallback contract. Binding a
// region is always optional: every structure works identically (just
// potentially slower) wherever its pages land.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "common/common.hpp"

namespace nemo::shm {

/// Offset value meaning "null".
inline constexpr std::uint64_t kNil = 0;

/// Obtain an atomic view of a word stored in shared memory.
template <typename T>
std::atomic_ref<T> aref(T& word) {
  static_assert(std::is_trivially_copyable_v<T>);
  return std::atomic_ref<T>(word);
}

/// One shared mapping + a lock-free bump allocator over it.
///
/// Thread-safety: alloc()/alloc_as()/alloc_pages()/shared-state accessors are
/// safe from any rank concurrently (the bump pointer is a CAS loop on a word
/// inside the mapping itself, so forked processes contend correctly too).
/// Construction, move, and destruction are single-owner operations: exactly
/// one World constructs the arena before ranks spawn and destroys it after
/// they join. at()/at_as()/offset_of() are pure address arithmetic and
/// assert (always-on) that the offset/pointer lies inside the mapping.
class Arena {
 public:
  /// mmap/mbind granularity; alloc_pages() hands out multiples of this.
  static constexpr std::size_t kPageBytes = 4096;

  /// Anonymous MAP_SHARED arena: shared with threads and with children
  /// forked *after* creation.
  static Arena create_anonymous(std::size_t bytes);

  /// POSIX shm_open-backed arena (O_CREAT | O_EXCL), for unrelated processes
  /// and for demonstrating the real deployment path. `name` must start '/'.
  /// The creating Arena owns the name and unlinks it on destruction.
  static Arena create_shm(const std::string& name, std::size_t bytes);

  /// Attach to an existing shm arena created by create_shm. The attached
  /// view does not own the name (no unlink on destruction).
  static Arena open_shm(const std::string& name);

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&& o) noexcept { move_from(o); }
  Arena& operator=(Arena&& o) noexcept {
    if (this != &o) {
      destroy();
      move_from(o);
    }
    return *this;
  }
  ~Arena() { destroy(); }

  /// Drop unlink responsibility (keeps the mapping). A forked child that
  /// re-attaches via open_shm calls this on its inherited copy first, so
  /// replacing it cannot shm_unlink the segment out from under the parent
  /// and sibling ranks.
  void disown() { owner_ = false; }

  [[nodiscard]] bool valid() const { return base_ != nullptr; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::byte* base() const { return base_; }

  /// Translate an offset to a pointer in this mapping.
  [[nodiscard]] std::byte* at(std::uint64_t off) const {
    NEMO_ASSERT(off != kNil && off < size_);
    return base_ + off;
  }

  template <typename T>
  [[nodiscard]] T* at_as(std::uint64_t off) const {
    static_assert(std::is_trivially_copyable_v<T>);
    NEMO_ASSERT(off + sizeof(T) <= size_);
    return reinterpret_cast<T*>(at(off));
  }

  /// Offset of a pointer inside the mapping (must point into it).
  [[nodiscard]] std::uint64_t offset_of(const void* p) const {
    auto* b = static_cast<const std::byte*>(p);
    NEMO_ASSERT(b >= base_ && b < base_ + size_);
    return static_cast<std::uint64_t>(b - base_);
  }

  [[nodiscard]] bool contains(const void* p, std::size_t len = 0) const {
    auto* b = static_cast<const std::byte*>(p);
    return b >= base_ && b + len <= base_ + size_;
  }

  /// Bump-allocate `bytes` aligned to `align` (power of two, >= 8).
  /// Thread-safe across ranks; memory is never freed individually.
  /// Asserts (always-on) when the arena is exhausted — size it up front via
  /// Config::arena_bytes rather than handling failure at every call site.
  std::uint64_t alloc(std::size_t bytes, std::size_t align = kCacheLine);

  /// Bump-allocate a page-aligned, whole-page region: the shape mbind(2)
  /// needs, so a later bind_to_node()/interleave() over exactly this range
  /// cannot touch a neighbouring allocation's pages.
  std::uint64_t alloc_pages(std::size_t bytes) {
    return alloc(round_up(bytes, kPageBytes), kPageBytes);
  }

  /// Allocate and return a typed pointer (arena-lifetime object).
  template <typename T>
  T* alloc_as(std::size_t count = 1, std::size_t align = alignof(T)) {
    std::uint64_t off =
        alloc(sizeof(T) * count, align < 8 ? 8 : align);
    return at_as<T>(off);
  }

  /// Bytes still available for alloc().
  [[nodiscard]] std::size_t remaining() const;

 private:
  struct Header {
    std::uint64_t magic;
    std::uint64_t size;
    std::uint64_t alloc_next;  // atomic bump pointer
  };
  static constexpr std::uint64_t kMagic = 0x4e454d4f4c4d5431ull;  // NEMOLMT1

  Header* header() const { return reinterpret_cast<Header*>(base_); }
  void init_header();
  void destroy();
  void move_from(Arena& o) {
    base_ = o.base_;
    size_ = o.size_;
    shm_name_ = std::move(o.shm_name_);
    owner_ = o.owner_;
    o.base_ = nullptr;
    o.size_ = 0;
    o.owner_ = false;
  }

  std::byte* base_ = nullptr;
  std::size_t size_ = 0;
  std::string shm_name_;  // non-empty when shm_open-backed
  bool owner_ = false;    // unlink on destroy
};

}  // namespace nemo::shm
