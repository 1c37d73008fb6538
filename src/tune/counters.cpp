#include "tune/counters.hpp"

#include <cstdio>

#include "trace/registry.hpp"

namespace nemo::tune {

Counters& Counters::operator+=(const Counters& o) {
  for (int i = 0; i < kSizeClasses; ++i)
    sent_by_class[static_cast<std::size_t>(i)] +=
        o.sent_by_class[static_cast<std::size_t>(i)];
  for (int i = 0; i < kPaths; ++i)
    path_hist[static_cast<std::size_t>(i)] +=
        o.path_hist[static_cast<std::size_t>(i)];
  fastbox_hits += o.fastbox_hits;
  fastbox_fallbacks += o.fastbox_fallbacks;
  ring_stalls += o.ring_stalls;
  progress_passes += o.progress_passes;
  coll_shm_ops += o.coll_shm_ops;
  coll_p2p_ops += o.coll_p2p_ops;
  coll_shm_bytes += o.coll_shm_bytes;
  coll_fallbacks += o.coll_fallbacks;
  coll_epoch_stalls += o.coll_epoch_stalls;
  peer_deaths += o.peer_deaths;
  fence_epochs += o.fence_epochs;
  reclaimed_slots += o.reclaimed_slots;
  timeout_aborts += o.timeout_aborts;
  um_pool_hits += o.um_pool_hits;
  um_pool_misses += o.um_pool_misses;
  for (int i = 0; i < kSimdKernels; ++i) {
    simd_fold_ops[static_cast<std::size_t>(i)] +=
        o.simd_fold_ops[static_cast<std::size_t>(i)];
    simd_fold_bytes[static_cast<std::size_t>(i)] +=
        o.simd_fold_bytes[static_cast<std::size_t>(i)];
  }
  pack_direct_ops += o.pack_direct_ops;
  pack_direct_bytes += o.pack_direct_bytes;
  pack_nt_ops += o.pack_nt_ops;
  unpack_ops += o.unpack_ops;
  return *this;
}

// The JSON shapes live in trace::Registry (the single telemetry writer
// shared with the trace dumps); these wrappers keep the historical
// string-returning API for the benches.

std::string Counters::to_json(int rank) const {
  return trace::Registry::counters_json(*this, rank).dump();
}

std::string telemetry_json(const std::string& label,
                           const Counters* per_rank, int nranks) {
  return trace::Registry::telemetry_json(label, per_rank, nranks).dump() +
         "\n";
}

bool write_telemetry(const std::string& path, const std::string& label,
                     const Counters* per_rank, int nranks) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write telemetry to %s\n", path.c_str());
    return false;
  }
  std::string body = telemetry_json(label, per_rank, nranks);
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace nemo::tune
