#include "tune/tuning.hpp"

#include "shm/nt_copy.hpp"

namespace nemo::tune {

TuningTable effective_table(const Topology& topo) {
  TuningTable t;
  // NT crossover: half the LLC, the §3.5-style "don't flush the cache"
  // bound. Shared-LLC pairs use the shared cache the pair sits behind; the
  // other placements use this host's detected default.
  std::size_t host_default = shm::nt_default_threshold();
  for (int i = 0; i < TuningTable::kPlacements; ++i) {
    auto p = static_cast<PairPlacement>(i);
    PlacementTuning& pt = t.place[static_cast<std::size_t>(i)];
    pt.nt_min = host_default;
    // Copy #1 streams only when the pair shares no LLC (see backends.hpp).
    pt.push_nt = p != PairPlacement::kSharedCache;
  }
  if (auto pair = topo.find_pair(PairPlacement::kSharedCache)) {
    if (auto llc = topo.shared_cache(pair->first, pair->second))
      t.for_placement(PairPlacement::kSharedCache).nt_min = llc->size_bytes / 2;
  }
  return t;
}

}  // namespace nemo::tune
