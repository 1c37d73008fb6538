// Telemetry registry: lightweight per-rank counters the engine bumps on its
// hot paths (plain increments on engine-private memory — no atomics, no
// sampling) and the benches read back. Dumped as JSON via the benches'
// --telemetry flag.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/common.hpp"

namespace nemo::tune {

struct Counters {
  /// log2 size classes: bucket i covers [2^i, 2^(i+1)) bytes; bucket 0 also
  /// takes zero-byte messages. 40 classes cover up to 1 TiB.
  static constexpr int kSizeClasses = 40;
  /// Backend histogram slots: lmt::LmtKind 0..3, slot 4 unused (kept so
  /// the indexes stay stable), eager=5 (deferred on the sender because the
  /// pair's ring was full, or a self-send), fastbox=6 (straight into the
  /// ring).
  static constexpr int kPaths = 7;
  static constexpr int kPathEager = 5;
  static constexpr int kPathFastbox = 6;

  std::array<std::uint64_t, kSizeClasses> sent_by_class{};
  std::array<std::uint64_t, kPaths> path_hist{};  ///< Messages per path.

  std::uint64_t fastbox_hits = 0;  ///< Eager sends put straight in a ring.
  /// Eager sends deferred on the sender: the pair's ring was full.
  std::uint64_t fastbox_fallbacks = 0;
  std::uint64_t ring_stalls = 0;  ///< Copy-ring push found it full.
  std::uint64_t progress_passes = 0;

  // Collective path telemetry (the shm arena fast path vs the pt2pt
  // fallback; see src/coll/).
  std::uint64_t coll_shm_ops = 0;   ///< Collectives that took the arena.
  std::uint64_t coll_p2p_ops = 0;   ///< Collectives on the pt2pt algorithms.
  std::uint64_t coll_shm_bytes = 0; ///< Payload bytes this rank moved via it.
  std::uint64_t coll_fallbacks = 0; ///< shm wanted but geometry forbade it.
  std::uint64_t coll_epoch_stalls = 0;  ///< Waits on a not-yet-published
                                        ///< epoch/doorbell/ack/barrier word.

  // Resilience telemetry (src/resil/): death verdicts and the recovery
  // fence's work, observed from this rank.
  std::uint64_t peer_deaths = 0;      ///< Distinct peers this rank fenced.
  std::uint64_t fence_epochs = 0;     ///< Epoch fences this rank ran.
  std::uint64_t reclaimed_slots = 0;  ///< Arena cells tombstoned by fences.
  std::uint64_t timeout_aborts = 0;   ///< Verdicts from heartbeat timeout
                                      ///< (vs eager reaper/ESRCH flags).

  // Unexpected-receive buffer pool (match.hpp freelist).
  std::uint64_t um_pool_hits = 0;    ///< Reused a pooled buffer, no alloc.
  std::uint64_t um_pool_misses = 0;  ///< Pool empty or buffer too small.

  /// Reduction fold kernel histogram, indexed by simd::Kernel (0 scalar,
  /// 1 avx2, 2 avx512). One op = one per-chunk fold call.
  static constexpr int kSimdKernels = 3;
  std::array<std::uint64_t, kSimdKernels> simd_fold_ops{};
  std::array<std::uint64_t, kSimdKernels> simd_fold_bytes{};

  // Datatype pack/unpack path telemetry. `direct` = a strided block handed
  // to the pt2pt engine as a segment list (gathered into cells, or moved by
  // a segment-capable LMT backend) — the strided collectives never pack
  // into a private staging buffer.
  std::uint64_t pack_direct_ops = 0;
  std::uint64_t pack_direct_bytes = 0;
  std::uint64_t unpack_ops = 0;  ///< Strided blocks received in place.

  static int size_class(std::size_t bytes) {
    int c = 0;
    while (bytes > 1 && c < kSizeClasses - 1) {
      bytes >>= 1;
      ++c;
    }
    return c;
  }

  void record_send(std::size_t bytes, int path) {
    sent_by_class[static_cast<std::size_t>(size_class(bytes))]++;
    path_hist[static_cast<std::size_t>(path)]++;
  }

  Counters& operator+=(const Counters& o);

  /// One JSON object ({"rank": r, ...}); `rank` < 0 omits the field (used
  /// for cross-rank aggregates).
  [[nodiscard]] std::string to_json(int rank) const;
};

/// Aggregate + dump several ranks' counters as a single JSON document:
/// {"telemetry": ..., "ranks": [...], "total": {...}}. Used by --telemetry.
std::string telemetry_json(const std::string& label,
                           const Counters* per_rank, int nranks);

/// Write telemetry_json() to `path`; false (with stderr note) on failure.
bool write_telemetry(const std::string& path, const std::string& label,
                     const Counters* per_rank, int nranks);

}  // namespace nemo::tune
