// Dynamic LMT selection policy (paper §3.5).
//
// Two families of thresholds:
//  1. DMAmin — when the KNEM backend should offload to the DMA engine:
//         DMAmin = CacheSize / (2 * CoresSharingTheCache)
//     derived from "the cache must be at least two times larger than
//     messages being received" so a CPU copy does not flush the local cache.
//     With a 4 MiB L2 shared by 2 cores this gives 1 MiB; unshared, 2 MiB;
//     a 6 MiB L2 raises both by 50% — the measurements §3.5 reports.
//  2. Activation — when to leave the eager path for an LMT at all (Nemesis
//     hardwired 64 KiB; measurements show KNEM pays off from 8 KiB for
//     pingpong and 4 KiB inside collectives).
//
// The policy also picks *which* backend: KNEM when present; vmsplice when the
// communicating cores share no cache (where it beats the two-copy scheme);
// otherwise the default double-buffering (which wins under a shared cache).
//
// Activation and DMAmin come from the World's tuning table (the formulas,
// with the NEMO_LMT_ACTIVATION knob applied).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/topology.hpp"
#include "lmt/lmt.hpp"
#include "tune/tuning.hpp"

namespace nemo::lmt {

/// Construction-time knobs for a Policy. Plain data; copied into the Policy.
/// The availability flags start from the caller's intent and are ANDed with
/// what World actually probed on the host (see effective_policy in comm.cpp).
struct PolicyConfig {
  bool knem_available = true;
  bool vmsplice_available = true;
  bool dma_available = true;

  bool operator==(const PolicyConfig&) const = default;
};

/// Per-engine LMT selection policy.
///
/// Contract: immutable after construction — every query (use_lmt,
/// choose_kind, dma_min_for, knem_flags) is const and depends only on its
/// arguments, so one Policy may be consulted from its owning rank's thread
/// for the life of the Engine without synchronisation. The tuning table it
/// references is owned by the World and outlives every Policy.
///
/// Placement semantics: cores are *logical* ids in the configured Topology
/// (which may be synthetic, e.g. the e5345 preset). A core of -1 means "this
/// rank is not bound"; pairs with any unknown core are treated as sharing
/// no cache. NUMA placement of the shared buffers themselves is decided one
/// layer up (shm::choose_region_placement consumed by World); this class
/// only picks thresholds and backends per message.
class Policy {
 public:
  /// `tuning` is not owned and must outlive the Policy (the runtime passes
  /// the World's table).
  Policy(Topology topo, PolicyConfig cfg, const tune::TuningTable& tuning)
      : topo_(std::move(topo)), cfg_(cfg), tuning_(&tuning) {}

  /// The paper's formula, computed from architecture characteristics only
  /// (one MPI process per core assumed, §3.5 second formula).
  static std::size_t dma_min(const Topology& topo, int core) {
    const CacheDomain& llc = topo.largest_cache(core);
    std::size_t sharers = llc.cores.empty() ? 1 : llc.cores.size();
    return llc.size_bytes / (2 * sharers);
  }

  /// The table's DMAmin, or the formula for `recv_core` when it is 0.
  [[nodiscard]] std::size_t dma_min_for(int recv_core) const {
    return tuning_->dma_min != 0 ? tuning_->dma_min : dma_min(topo_, recv_core);
  }

  /// Should this message leave the eager path? `collective` selects the
  /// lower activation threshold discussed in §4.4.
  [[nodiscard]] bool use_lmt(std::size_t bytes, bool collective = false) const {
    return bytes > (collective ? tuning_->collective_activation
                               : tuning_->lmt_activation);
  }

  /// Resolve kAuto into a concrete backend for a (sender, receiver) pair:
  /// the §3.5 preference chain, gated by availability.
  [[nodiscard]] LmtKind choose_kind(int sender_core, int recv_core) const {
    if (cfg_.knem_available) return LmtKind::kKnem;
    bool shared = cores_known(sender_core, recv_core) &&
                  topo_.shared_cache(sender_core, recv_core).has_value();
    if (cfg_.vmsplice_available && !shared) return LmtKind::kVmsplice;
    return LmtKind::kDefaultShm;
  }

  /// Resolve KNEM flags for a transfer. kAuto: DMA iff the message passes
  /// DMAmin for the receiving core; asynchronous iff DMA (KNEM's default).
  [[nodiscard]] std::uint32_t knem_flags(std::size_t bytes, int recv_core,
                                         KnemMode mode) const;

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] const PolicyConfig& config() const { return cfg_; }

 private:
  /// Cores usable for classification: valid ids in topo_, distinct. Ids
  /// beyond the configured (possibly synthetic) topology count as unknown.
  [[nodiscard]] bool cores_known(int a, int b) const {
    return a >= 0 && a < topo_.num_cores && b >= 0 && b < topo_.num_cores &&
           a != b;
  }

  Topology topo_;
  PolicyConfig cfg_;
  const tune::TuningTable* tuning_;
};

}  // namespace nemo::lmt
