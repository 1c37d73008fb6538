// NUMA-aware placement for shared-memory regions (ROADMAP: "first-touch
// currently decides; cross-socket pairs likely want receiver-side
// placement").
//
// Two separable concerns live here:
//  1. *Deciding* where a region should go — choose_region_placement() is a
//     pure function of the placement mode, the topology, and the
//     communicating cores, so it is unit-testable on synthetic topologies
//     without NUMA hardware.
//  2. *Applying* the decision — bind_to_node()/interleave() issue a raw
//     mbind(2) syscall (no libnuma dependency). On single-node hosts,
//     kernels without mempolicy support, or sandboxes that deny mbind, every
//     apply call degrades to a no-op and the caller keeps first-touch
//     behaviour — decisions are still recorded so they stay observable.
//
// The mode is selected via NEMO_NUMA_PLACEMENT={auto,receiver,sender,
// interleave,first-touch}; `off` is first-touch under the name that says
// what it does: no mbind call at all.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "common/topology.hpp"

namespace nemo::shm {

/// Where a per-pair shared region (copy ring, fastbox) should live.
enum class NumaPlacement {
  kAuto,        ///< Receiver-side for cross-NUMA pairs, first-touch else.
  kReceiver,    ///< Always on the receiving core's node.
  kSender,      ///< Always on the sending core's node.
  kInterleave,  ///< Page-interleaved across all nodes.
  kFirstTouch,  ///< Kernel default: whoever touches a page first owns it.
};

const char* to_string(NumaPlacement p);
std::optional<NumaPlacement> numa_placement_from_string(const std::string& s);

/// The outcome of a placement decision for one region.
struct RegionPlacement {
  int node = -1;            ///< Target NUMA node; -1 = leave to first-touch.
  bool interleave = false;  ///< Page-interleave instead of single-node bind.
};

/// Decide placement for the shared buffers of an ordered (sender, receiver)
/// pair. Pure function: consults only the arguments. Cores may be -1
/// (unknown / no binding), which always yields first-touch — without knowing
/// who touches the region there is nothing better to do.
///
/// kAuto places receiver-side exactly when the two cores live on different
/// NUMA nodes (the paper's cross-socket case, where the receiver's copy #2
/// otherwise pays a remote read per cache line); same-node pairs keep
/// first-touch, which is already local.
RegionPlacement choose_region_placement(NumaPlacement mode,
                                        const Topology& topo, int sender_core,
                                        int recv_core);

/// NUMA nodes the *running host* exposes (sysfs), >= 1. Distinct from
/// Topology::num_numa_nodes(), which may describe a synthetic machine.
int host_numa_nodes();

/// True when mbind can do anything useful here: multi-node host and the
/// mempolicy syscall compiled in.
bool numa_bind_available();

/// Bind [p, p+len) to `node` (MPOL_PREFERRED + best-effort page move). The
/// range is shrunk inward to whole pages; a sub-page range is a successful
/// no-op. Returns false when the syscall is unavailable or rejected —
/// callers must treat false as "first-touch applies", never as an error.
bool bind_to_node(void* p, std::size_t len, int node);

/// Interleave [p, p+len) across every host node (MPOL_INTERLEAVE). Same
/// page-shrinking and fallback contract as bind_to_node().
bool interleave(void* p, std::size_t len);

}  // namespace nemo::shm
