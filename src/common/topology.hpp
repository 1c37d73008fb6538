// Logical description of a multicore machine: cores, sockets/dies, and the
// cache-sharing map. The LMT selection policy (paper §3.5) and the machine
// simulator both consume this description.
//
// Presets model the paper's evaluation hosts:
//  - xeon_e5345(): dual-socket quad-core Clovertown, 4 MiB L2 per core pair;
//  - xeon_x5460(): single-socket quad-core Harpertown, 6 MiB L2 per pair;
//  - nehalem(): the "upcoming" part the paper anticipates — one L3 shared by
//    all cores.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace nemo {

/// One cache domain: a cache of a given level shared by a set of cores.
struct CacheDomain {
  int level = 0;               ///< 1, 2 or 3.
  std::size_t size_bytes = 0;  ///< Total capacity.
  std::size_t line_bytes = 64;
  unsigned associativity = 8;
  std::vector<int> cores;  ///< Core ids sharing this cache instance.

  [[nodiscard]] bool contains(int core) const {
    for (int c : cores)
      if (c == core) return true;
    return false;
  }

  bool operator==(const CacheDomain&) const = default;
};

/// Relative placement of a communicating process pair — the three cases the
/// paper's figures distinguish.
enum class PairPlacement {
  kSharedCache,       ///< Both cores behind one last-level cache.
  kSameSocketNoShare, ///< Same socket, different dies (no shared cache).
  kDifferentSockets,  ///< Different sockets.
};

const char* to_string(PairPlacement p);

struct Topology {
  std::string name;
  int num_cores = 0;
  std::vector<int> socket_of;  ///< socket_of[core].
  std::vector<int> die_of;     ///< die_of[core] (globally unique die ids).
  /// numa_of[core]: NUMA node backing each core's local memory. Empty means
  /// "single node" (UMA host, or sysfs gave us nothing). The paper-era
  /// presets synthesize one node per socket so placement logic is testable
  /// without NUMA hardware.
  std::vector<int> numa_of;
  std::vector<CacheDomain> caches;

  /// NUMA node of `core` (0 on single-node descriptions).
  [[nodiscard]] int numa_node_of(int core) const {
    if (numa_of.empty()) return 0;
    return numa_of[static_cast<std::size_t>(core)];
  }

  /// Number of distinct NUMA nodes this description exposes (>= 1).
  [[nodiscard]] int num_numa_nodes() const;

  /// True when placement decisions can matter: more than one NUMA node.
  [[nodiscard]] bool multi_numa() const { return num_numa_nodes() > 1; }

  /// Largest-level cache shared by both cores, if any.
  [[nodiscard]] std::optional<CacheDomain> shared_cache(int a, int b) const;

  /// The largest (outermost) cache `core` sits behind.
  [[nodiscard]] const CacheDomain& largest_cache(int core) const;

  /// Number of cores sharing the largest cache of `core`.
  [[nodiscard]] unsigned cores_sharing_largest_cache(int core) const;

  /// Classify a core pair into the paper's three placements.
  [[nodiscard]] PairPlacement classify(int a, int b) const;

  /// Find a core pair with the requested placement, if the machine has one.
  [[nodiscard]] std::optional<std::pair<int, int>> find_pair(
      PairPlacement p) const;

  /// Internal consistency (every core covered by >=1 cache, ids in range).
  void validate() const;

  bool operator==(const Topology&) const = default;
};

/// Dual-socket quad-core Intel Xeon E5345 (2.33 GHz): the paper's main host.
/// 8 cores; L1d 32 KiB private; each pair of cores shares a 4 MiB L2.
Topology xeon_e5345();

/// Single-socket quad-core Xeon X5460 (3.16 GHz): two 6 MiB L2 caches.
Topology xeon_x5460();

/// Nehalem-like part: private 256 KiB L2, one 8 MiB L3 shared by all 4 cores.
Topology nehalem();

/// Generic SMP with `ncores` cores, no shared caches (private LLC per core).
Topology flat_smp(int ncores, std::size_t llc_bytes);

/// Best-effort detection of the host this process runs on, via sysfs
/// (including /sys/devices/system/node for the per-core NUMA map).
/// Falls back to flat_smp(hardware_concurrency, 8 MiB) when sysfs is absent.
Topology detect_host();

}  // namespace nemo
