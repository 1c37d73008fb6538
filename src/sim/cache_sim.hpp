// Deterministic set-associative cache hierarchy simulator.
//
// One CacheLevel instance exists per CacheDomain of the Topology (private L1s,
// shared or private L2s, optional L3). Accesses walk the accessing core's
// hierarchy inside-out; fills are inclusive; writes invalidate the line in
// every cache outside the writer's hierarchy (write-invalidate coherence,
// which is what makes double-buffer copy traffic evict application data —
// the pollution the paper measures).
#pragma once

#include <cstdint>
#include <vector>

#include "common/common.hpp"
#include "common/topology.hpp"
#include "sim/machine.hpp"

namespace nemo::sim {

class CacheLevel {
 public:
  CacheLevel(std::size_t size_bytes, std::size_t line, unsigned assoc);

  /// True on hit. On miss with `allocate`, the line is filled (LRU victim
  /// evicted). Also refreshes LRU order on hit.
  bool access(std::uint64_t line_addr, bool allocate);

  /// Remove the line if present; true if it was.
  bool invalidate(std::uint64_t line_addr);

  [[nodiscard]] bool contains(std::uint64_t line_addr) const;

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  void reset_stats() { hits_ = misses_ = 0; }
  /// Drop all cached lines (cold restart) as well as the statistics.
  void flush();

 private:
  std::size_t sets_;
  unsigned assoc_;
  unsigned line_shift_;
  /// ways_[set * assoc + i] = tag (or kEmpty), kept in LRU order
  /// (index 0 = MRU).
  std::vector<std::uint64_t> ways_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;

  static constexpr std::uint64_t kEmpty = ~0ull;
};

/// Where an access was served from.
enum class HitLevel {
  kL1 = 1,
  kL2 = 2,
  kRemoteCache = 3,  ///< Another hierarchy's cache (FSB cache-to-cache).
  kMem = 4,
};

class CacheSystem {
 public:
  explicit CacheSystem(const Topology& topo);

  /// One 64 B line access by `core`. `nt` = non-temporal write: bypasses
  /// allocation entirely (I/OAT-like stores also use this path).
  HitLevel access(int core, std::uint64_t addr, bool write, bool nt = false);

  /// DMA engine traffic: reads leave caches untouched; writes invalidate the
  /// line everywhere (coherent DMA) and never allocate.
  void dma_write(std::uint64_t addr);

  /// Number of line-accesses that had to go to memory *through an L2*
  /// (the PAPI "L2 cache misses" analogue in Table 2).
  [[nodiscard]] std::uint64_t l2_misses() const;
  [[nodiscard]] std::uint64_t l1_misses() const;

  void reset_stats();
  /// Cold caches + zero statistics.
  void flush_all();

  [[nodiscard]] const Topology& topology() const { return topo_; }

 private:
  struct CoreHierarchy {
    std::vector<std::size_t> levels;  ///< Indices into levels_, L1 first.
    std::vector<std::size_t> others;  ///< Every cache outside `levels`.
  };

  /// Drop the line from every cache outside `core`'s hierarchy; true if
  /// any of them held it.
  bool invalidate_others(int core, std::uint64_t addr);

  Topology topo_;
  std::vector<CacheLevel> levels_;     ///< One per CacheDomain.
  std::vector<int> domain_level_;      ///< Cache level (1/2/3) per instance.
  std::vector<CoreHierarchy> cores_;
};

}  // namespace nemo::sim
