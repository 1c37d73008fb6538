#include "lmt/policy.hpp"

#include "knem/knem_device.hpp"

namespace nemo::lmt {

const char* to_string(LmtKind k) {
  switch (k) {
    case LmtKind::kDefaultShm: return "default";
    case LmtKind::kVmsplice: return "vmsplice";
    case LmtKind::kVmspliceWritev: return "vmsplice-writev";
    case LmtKind::kKnem: return "knem";
    case LmtKind::kAuto: return "auto";
  }
  return "?";
}

const char* to_string(KnemMode m) {
  switch (m) {
    case KnemMode::kSyncCopy: return "sync-copy";
    case KnemMode::kAsyncCopy: return "async-copy";
    case KnemMode::kSyncDma: return "sync-dma";
    case KnemMode::kAsyncDma: return "async-dma";
    case KnemMode::kAuto: return "auto";
  }
  return "?";
}

std::uint32_t Policy::knem_flags(std::size_t bytes, int recv_core,
                                 KnemMode mode) const {
  switch (mode) {
    case KnemMode::kSyncCopy:
      return 0;
    case KnemMode::kAsyncCopy:
      return knem::kFlagAsync;
    case KnemMode::kSyncDma:
      return cfg_.dma_available ? knem::kFlagDma : 0u;
    case KnemMode::kAsyncDma:
      return cfg_.dma_available ? (knem::kFlagDma | knem::kFlagAsync)
                                : knem::kFlagAsync;
    case KnemMode::kAuto: {
      if (!cfg_.dma_available) return 0;
      std::size_t thresh =
          dma_min_for(recv_core >= 0 ? recv_core : 0);
      if (bytes >= thresh) return knem::kFlagDma | knem::kFlagAsync;
      return 0;
    }
  }
  return 0;
}

}  // namespace nemo::lmt
