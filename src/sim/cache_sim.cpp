#include "sim/cache_sim.hpp"

#include <algorithm>

namespace nemo::sim {

CacheLevel::CacheLevel(std::size_t size_bytes, std::size_t line,
                       unsigned assoc)
    : assoc_(assoc), line_shift_(log2_exact(line)) {
  NEMO_ASSERT(is_pow2(line));
  std::size_t lines = size_bytes / line;
  NEMO_ASSERT(lines >= assoc);
  sets_ = lines / assoc;
  // Round sets down to a power of two so set indexing is a mask (real
  // caches are organised this way; a 4 MiB 16-way cache has 4096 sets).
  while (!is_pow2(sets_)) --sets_;
  ways_.assign(sets_ * assoc_, kEmpty);
}

bool CacheLevel::access(std::uint64_t line_addr, bool allocate) {
  std::uint64_t idx = line_addr >> line_shift_;
  std::size_t set = static_cast<std::size_t>(idx) & (sets_ - 1);
  std::uint64_t* w = &ways_[set * assoc_];
  for (unsigned i = 0; i < assoc_; ++i) {
    if (w[i] == idx) {
      // Move to front (MRU).
      for (unsigned j = i; j > 0; --j) w[j] = w[j - 1];
      w[0] = idx;
      ++hits_;
      return true;
    }
  }
  ++misses_;
  if (allocate) {
    for (unsigned j = assoc_ - 1; j > 0; --j) w[j] = w[j - 1];
    w[0] = idx;
  }
  return false;
}

bool CacheLevel::invalidate(std::uint64_t line_addr) {
  std::uint64_t idx = line_addr >> line_shift_;
  std::size_t set = static_cast<std::size_t>(idx) & (sets_ - 1);
  std::uint64_t* w = &ways_[set * assoc_];
  for (unsigned i = 0; i < assoc_; ++i) {
    if (w[i] == idx) {
      // Compact: shift the rest up, empty the LRU slot.
      for (unsigned j = i; j + 1 < assoc_; ++j) w[j] = w[j + 1];
      w[assoc_ - 1] = kEmpty;
      return true;
    }
  }
  return false;
}

bool CacheLevel::contains(std::uint64_t line_addr) const {
  std::uint64_t idx = line_addr >> line_shift_;
  std::size_t set = static_cast<std::size_t>(idx) & (sets_ - 1);
  const std::uint64_t* w = &ways_[set * assoc_];
  for (unsigned i = 0; i < assoc_; ++i)
    if (w[i] == idx) return true;
  return false;
}

void CacheLevel::flush() {
  std::fill(ways_.begin(), ways_.end(), kEmpty);
  reset_stats();
}

CacheSystem::CacheSystem(const Topology& topo) : topo_(topo) {
  topo_.validate();
  levels_.reserve(topo_.caches.size());
  for (const auto& d : topo_.caches) {
    levels_.emplace_back(d.size_bytes, d.line_bytes, d.associativity);
    domain_level_.push_back(d.level);
  }
  cores_.resize(static_cast<std::size_t>(topo_.num_cores));
  for (int c = 0; c < topo_.num_cores; ++c) {
    auto& h = cores_[static_cast<std::size_t>(c)].levels;
    for (std::size_t i = 0; i < topo_.caches.size(); ++i)
      if (topo_.caches[i].contains(c)) h.push_back(i);
    std::sort(h.begin(), h.end(), [&](std::size_t a, std::size_t b) {
      return domain_level_[a] < domain_level_[b];
    });
    auto& others = cores_[static_cast<std::size_t>(c)].others;
    for (std::size_t i = 0; i < topo_.caches.size(); ++i)
      if (!topo_.caches[i].contains(c)) others.push_back(i);
  }
}

bool CacheSystem::invalidate_others(int core, std::uint64_t addr) {
  bool held = false;
  for (std::size_t i : cores_[static_cast<std::size_t>(core)].others)
    held |= levels_[i].invalidate(addr);
  return held;
}

HitLevel CacheSystem::access(int core, std::uint64_t addr, bool write,
                             bool nt) {
  const auto& h = cores_[static_cast<std::size_t>(core)].levels;

  // A line held by a cache outside this core's hierarchy is served by
  // cache-to-cache transfer over the fabric, which is cheaper than DRAM —
  // this is what keeps cross-die copies fast while working sets still fit
  // somebody's cache.
  bool remote = false;
  if (write) {
    // Write-invalidate coherence: caches outside this hierarchy lose the
    // line.
    remote = invalidate_others(core, addr);
    if (nt) {
      // Streaming store: bypasses this core's caches too (and drops any
      // stale copy they hold).
      for (std::size_t m : h) levels_[m].invalidate(addr);
      return HitLevel::kMem;
    }
  }

  // Walk inside-out; allocate in every level missed (inclusive fill).
  for (std::size_t m : h) {
    if (levels_[m].access(addr, /*allocate=*/true))
      return domain_level_[m] == 1 ? HitLevel::kL1 : HitLevel::kL2;
  }
  // Migratory approximation of MESI: a read served cache-to-cache takes
  // ownership of the line, so the producer's next write pays coherence
  // again. This is the ping-pong that makes the double-buffer's copy buffer
  // expensive across dies while staying free inside a shared L2.
  if (!write) remote = invalidate_others(core, addr);
  return remote ? HitLevel::kRemoteCache : HitLevel::kMem;
}

void CacheSystem::dma_write(std::uint64_t addr) {
  for (auto& lvl : levels_) lvl.invalidate(addr);
}

std::uint64_t CacheSystem::l2_misses() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < levels_.size(); ++i)
    if (domain_level_[i] >= 2) n += levels_[i].misses();
  return n;
}

std::uint64_t CacheSystem::l1_misses() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < levels_.size(); ++i)
    if (domain_level_[i] == 1) n += levels_[i].misses();
  return n;
}

void CacheSystem::reset_stats() {
  for (auto& lvl : levels_) lvl.reset_stats();
}

void CacheSystem::flush_all() {
  for (auto& lvl : levels_) lvl.flush();
}

}  // namespace nemo::sim
