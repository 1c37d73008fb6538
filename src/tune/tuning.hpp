// The tuning table (paper §3.5, generalised): every threshold the runtime
// consults, derived from the paper's architecture formulas — DMAmin =
// CacheSize/(2·sharers), KNEM from 8 KiB, 4 KiB inside collectives, streaming
// stores past half the LLC — with one row per pair-placement class (shared
// LLC / same socket without sharing / cross socket) for the fields that move
// with placement.
//
// effective_table() evaluates the formulas for a topology. NEMO_* knobs that
// land in the table override it once per World (core/knobs.hpp); nothing
// else writes it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/common.hpp"
#include "common/topology.hpp"
#include "simd/simd.hpp"

namespace nemo::tune {

/// Thresholds for one pair-placement class.
///
/// Contract: a PlacementTuning is plain data — the formulas and the knobs
/// fill it, consumers (ShmCopyBackend, World) only read it.
struct PlacementTuning {
  /// Minimum rendezvous size that switches ring copies to streaming
  /// (non-temporal) stores. SIZE_MAX = never.
  std::size_t nt_min = 0;
  /// Whether copy #1 (sender into the ring slot) should also stream. On a
  /// shared LLC the cached slot write is what makes the receiver's read hit,
  /// so the formula default streams only on non-sharing placements.
  bool push_nt = false;

  bool operator==(const PlacementTuning&) const = default;
};

/// The full per-machine tuning state the runtime consults.
///
/// Thread-safety: resolved once in the World constructor before ranks spawn
/// and immutable afterwards; every Engine/Policy holds a const reference, so
/// concurrent reads are safe without synchronisation.
struct TuningTable {
  static constexpr int kPlacements = 3;  ///< Indexed by PairPlacement.

  std::array<PlacementTuning, kPlacements> place{};

  /// Eager → rendezvous activation (KNEM pays off from 8 KiB, §3.5).
  /// NEMO_LMT_ACTIVATION overrides.
  std::size_t lmt_activation = 8 * KiB;

  /// KNEM DMA offload threshold. 0 = use the paper's per-core formula.
  std::size_t dma_min = 0;

  /// Lower activation used inside collectives (§4.4).
  std::size_t collective_activation = 4 * KiB;

  /// Shm-collective crossover: operations whose symmetric size measure
  /// (bcast bytes, per-rank block, operand bytes) reaches this take the
  /// collective-arena path under NEMO_COLL=auto; below it the pt2pt
  /// algorithms win on their lower per-op synchronisation cost. 0 =
  /// formula: core::resolve_config fills in coll_activation_for(mode).
  std::size_t coll_activation = 0;
  /// Per-rank collective-arena slot capacity (staging + doorbell
  /// pipelining granularity). NEMO_COLL_SLOT_BYTES overrides.
  std::uint32_t coll_slot_bytes = 256 * KiB;

  /// Per-pair fastbox ring: slots per ring, and the slot stride (64 B
  /// header + payload). The stride is no knob: core::resolve_config derives
  /// it from lmt_activation after the knobs apply (fastbox_slot_for), so
  /// every auto-routed eager message fits a slot. NEMO_FASTBOX_SLOTS
  /// overrides the count.
  std::uint32_t fastbox_slots = 4;
  std::uint32_t fastbox_slot_bytes = 8 * KiB + kCacheLine;

  /// Reduction kernel the collective folds run with. kAuto defers to CPUID
  /// (best supported, AVX-512 -> AVX2 -> scalar) when the World resolves
  /// it. NEMO_SIMD overrides.
  simd::Choice simd_kernel = simd::Choice::kAuto;
  /// Minimum contiguous block run at which datatype pack/unpack streams
  /// through the NT engine (packed strided operands evict the cache the
  /// same way big contiguous copies do). 0 = formula: the same half-LLC
  /// bound as nt_min. SIZE_MAX (NEMO_PACK_NT_MIN=off) = never.
  std::size_t pack_nt_min = 0;

  [[nodiscard]] const PlacementTuning& for_placement(PairPlacement p) const {
    return place[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] PlacementTuning& for_placement(PairPlacement p) {
    return place[static_cast<std::size_t>(p)];
  }

  bool operator==(const TuningTable&) const = default;
};

/// Legal geometry ranges the knob table enforces (the fastbox slot bytes:
/// the range fastbox_slot_for clamps to). Slot and buffer sizes must also
/// be cache-line multiples.
inline constexpr std::size_t kCollSlotMin = kCacheLine;
inline constexpr std::size_t kCollSlotMax = 16 * MiB;
inline constexpr std::uint32_t kFastboxSlotsMax = 64;
inline constexpr std::size_t kFastboxSlotBytesMin = 128;
inline constexpr std::size_t kFastboxSlotBytesMax = 16 * KiB;
inline constexpr std::uint32_t kRingBufsMax = 1024;
inline constexpr std::size_t kRingBufBytesMax = 1 * GiB;

/// Fastbox slot stride for an eager activation: the activation rounded up
/// to a cache line plus the one-line (64 B) slot header, clamped to
/// [kFastboxSlotBytesMin, kFastboxSlotBytesMax]. The slot payload is then
/// the largest message the engine routes through the fastbox.
constexpr std::uint32_t fastbox_slot_for(std::size_t lmt_activation) {
  std::size_t payload = round_up(
      std::min(lmt_activation, kFastboxSlotBytesMax), kCacheLine);
  return static_cast<std::uint32_t>(
      std::clamp(payload + kCacheLine, kFastboxSlotBytesMin,
                 kFastboxSlotBytesMax));
}
static_assert(TuningTable{}.fastbox_slot_bytes ==
              fastbox_slot_for(TuningTable{}.lmt_activation));

/// Collective-family crossover for a launch mode, measured with fresh
/// operands at 2 and 4 ranks (bench/results/perfbench/coll-crossover/):
///  - Readers pull operands in place (threads worlds): 4 KiB, the paper's
///    in-collective activation. One copy beats the eager path's two from
///    there; at 1 KiB and below p2p still wins at 2 ranks.
///  - Heap operands are staged through the slots (procs worlds): 8 KiB.
///    Staging is two copies, as eager is, so at 2 ranks the arena loses at
///    4 KiB; it wins once the pt2pt sends leave the eager path.
constexpr std::size_t coll_activation_for(bool operands_read_in_place) {
  return operands_read_in_place ? 4 * KiB : 8 * KiB;
}

/// The paper's formulas evaluated for `topo`: the base table every World
/// starts from before its knobs apply.
TuningTable effective_table(const Topology& topo);

}  // namespace nemo::tune
