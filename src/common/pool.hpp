// Recycling for the per-message objects of the eager path: ASan poisoning
// for parked nodes, and a capped per-thread free list that backs
// std::allocate_shared, so a request costs no malloc in steady state.
//
// Pooling is the only code path. Under AddressSanitizer a parked block is
// poisoned rather than handed back to malloc, so a use after recycle is
// still reported (as use-after-poison).
#pragma once

#include <cstddef>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define NEMO_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NEMO_ASAN 1
#endif
#endif

#ifdef NEMO_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace nemo {

/// Mark a parked block unusable (ASan builds only; free elsewhere).
inline void poison_parked(const void* p, std::size_t n) {
#ifdef NEMO_ASAN
  ASAN_POISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

/// Make a parked block usable again before it is handed out or freed.
inline void unpoison_parked(const void* p, std::size_t n) {
#ifdef NEMO_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

namespace detail {

/// Size of every single-object block the per-thread cache holds.
inline constexpr std::size_t kPoolBlockBytes = 64;
/// Blocks one thread's cache keeps; covers a 96-request window.
inline constexpr std::size_t kPoolBlocks = 128;

/// A parked block from this thread's cache, made usable, or null.
void* take_block() noexcept;
/// Park a kPoolBlockBytes block in this thread's cache. False when the cache
/// is full or its thread is exiting: the caller then frees the block.
bool park_block(void* p) noexcept;

}  // namespace detail

/// Allocator for std::allocate_shared: a single object of at most
/// kPoolBlockBytes comes from and returns to a per-thread cache of at most
/// kPoolBlocks blocks; anything else, and every block past the cap, goes to
/// operator new/delete. A block may be freed on any thread (it then parks
/// in that thread's cache), so a shared_ptr built with it may outlive the
/// thread and object that made it.
template <typename T>
struct PoolAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    if constexpr (sizeof(T) <= detail::kPoolBlockBytes) {
      if (n == 1) {
        void* p = detail::take_block();
        if (p == nullptr) p = ::operator new(detail::kPoolBlockBytes);
        return static_cast<T*>(p);
      }
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if constexpr (sizeof(T) <= detail::kPoolBlockBytes)
      if (n == 1 && detail::park_block(p)) return;
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace nemo
