#include "common/pool.hpp"

namespace nemo::detail {

namespace {

/// One thread's parked blocks. Trivially destructible, so it stays readable
/// while the thread's other thread_locals are destroyed; `closed` then sends
/// every later free straight to operator delete.
struct BlockCache {
  void* blocks[kPoolBlocks];
  std::size_t n;
  bool armed;   ///< The drain below is registered for this thread.
  bool closed;  ///< The drain has run: the thread is exiting.
};

thread_local constinit BlockCache t_cache{};

/// Frees the thread's parked blocks when the thread exits.
struct CacheDrain {
  void arm() {}
  ~CacheDrain() {
    BlockCache& c = t_cache;
    c.closed = true;
    while (c.n != 0) {
      void* p = c.blocks[--c.n];
      unpoison_parked(p, kPoolBlockBytes);
      ::operator delete(p);
    }
  }
};

thread_local CacheDrain t_drain;

}  // namespace

void* take_block() noexcept {
  BlockCache& c = t_cache;
  if (c.n == 0) return nullptr;
  void* p = c.blocks[--c.n];
  unpoison_parked(p, kPoolBlockBytes);
  return p;
}

bool park_block(void* p) noexcept {
  BlockCache& c = t_cache;
  if (c.closed || c.n == kPoolBlocks) return false;
  if (!c.armed) {
    c.armed = true;
    t_drain.arm();  // First use registers the drain for this thread's exit.
  }
  poison_parked(p, kPoolBlockBytes);
  c.blocks[c.n++] = p;
  return true;
}

}  // namespace nemo::detail
