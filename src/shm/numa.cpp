#include "shm/numa.hpp"

#include <dirent.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "common/common.hpp"

#if defined(__linux__)
#include <sys/syscall.h>
#if defined(SYS_mbind)
#define NEMO_HAVE_MBIND 1
// Mirror the linux/mempolicy.h constants we need; including the uapi header
// directly drags in kernel-version variance for three small enums.
#define NEMO_MPOL_PREFERRED 1
#define NEMO_MPOL_INTERLEAVE 3
#define NEMO_MPOL_MF_MOVE (1 << 1)
#endif
#endif
#ifndef NEMO_HAVE_MBIND
#define NEMO_HAVE_MBIND 0
#endif

namespace nemo::shm {

const char* to_string(NumaPlacement p) {
  switch (p) {
    case NumaPlacement::kAuto: return "auto";
    case NumaPlacement::kReceiver: return "receiver";
    case NumaPlacement::kSender: return "sender";
    case NumaPlacement::kInterleave: return "interleave";
    case NumaPlacement::kFirstTouch: return "first-touch";
  }
  return "?";
}

std::optional<NumaPlacement> numa_placement_from_string(const std::string& s) {
  if (s == "auto") return NumaPlacement::kAuto;
  if (s == "receiver") return NumaPlacement::kReceiver;
  if (s == "sender") return NumaPlacement::kSender;
  if (s == "interleave") return NumaPlacement::kInterleave;
  if (s == "first-touch" || s == "firsttouch" || s == "off")
    return NumaPlacement::kFirstTouch;
  return std::nullopt;
}

RegionPlacement choose_region_placement(NumaPlacement mode,
                                        const Topology& topo, int sender_core,
                                        int recv_core) {
  RegionPlacement r;
  if (mode == NumaPlacement::kFirstTouch) return r;
  if (mode == NumaPlacement::kInterleave) {
    r.interleave = true;
    return r;
  }
  bool known = sender_core >= 0 && sender_core < topo.num_cores &&
               recv_core >= 0 && recv_core < topo.num_cores;
  if (!known) return r;  // Nothing to bind to: first-touch.
  int snode = topo.numa_node_of(sender_core);
  int rnode = topo.numa_node_of(recv_core);
  switch (mode) {
    case NumaPlacement::kReceiver:
      r.node = rnode;
      break;
    case NumaPlacement::kSender:
      r.node = snode;
      break;
    case NumaPlacement::kAuto:
      // Cross-node pairs: the receiver's copy #2 walks every line of the
      // ring; keep those reads local and charge the sender the remote
      // stores (which copy #1 streams past its cache anyway).
      if (snode != rnode) r.node = rnode;
      break;
    case NumaPlacement::kInterleave:
    case NumaPlacement::kFirstTouch:
      break;  // Handled above.
  }
  return r;
}

namespace {

/// Bitmask of NUMA node ids present under /sys/devices/system/node
/// (directory scan, so sparse/non-contiguous ids are represented too).
/// 0 when sysfs exposes nothing; nodes >= 64 are ignored (mbind mask word).
unsigned long host_node_mask() {
  static const unsigned long mask = [] {
    unsigned long m = 0;
    DIR* d = ::opendir("/sys/devices/system/node");
    if (d == nullptr) return m;
    while (dirent* e = ::readdir(d)) {
      const char* name = e->d_name;
      if (std::strncmp(name, "node", 4) != 0) continue;
      char* end = nullptr;
      long id = std::strtol(name + 4, &end, 10);
      if (end == name + 4 || *end != '\0') continue;
      if (id >= 0 && id < static_cast<long>(8 * sizeof(unsigned long)))
        m |= 1ul << id;
    }
    ::closedir(d);
    return m;
  }();
  return mask;
}

int popcount_ul(unsigned long v) {
  int n = 0;
  for (; v != 0; v &= v - 1) ++n;
  return n;
}

}  // namespace

int host_numa_nodes() {
  int n = popcount_ul(host_node_mask());
  return n > 0 ? n : 1;
}

bool numa_bind_available() {
  if (!NEMO_HAVE_MBIND) return false;
  return host_numa_nodes() >= 2;
}

namespace {

/// Shrink [p, p+len) inward to whole pages; false when nothing remains.
bool page_range(void*& p, std::size_t& len) {
  const std::size_t page = 4096;
  auto addr = reinterpret_cast<std::uintptr_t>(p);
  std::uintptr_t start = round_up(addr, page);
  std::uintptr_t end = (addr + len) & ~(page - 1);
  if (end <= start) return false;
  p = reinterpret_cast<void*>(start);
  len = end - start;
  return true;
}

#if NEMO_HAVE_MBIND
bool mbind_range(void* p, std::size_t len, int mode, unsigned long mask) {
  // maxnode is the mask's bit count + 1 (the +1 matches libnuma's calling
  // convention; some kernels reject an exact bit count).
  const unsigned long maxnode = 8 * sizeof(unsigned long) + 1;
  long rc = ::syscall(SYS_mbind, p, len, mode, &mask, maxnode,
                      static_cast<unsigned>(NEMO_MPOL_MF_MOVE));
  if (rc != 0)  // Retry without moving already-touched pages.
    rc = ::syscall(SYS_mbind, p, len, mode, &mask, maxnode, 0u);
  return rc == 0;
}
#endif

}  // namespace

bool bind_to_node(void* p, std::size_t len, int node) {
  if (!numa_bind_available()) return false;
  // The target must actually exist on this host (node ids can be sparse).
  if (node < 0 || node >= static_cast<int>(8 * sizeof(unsigned long)) ||
      (host_node_mask() & (1ul << node)) == 0)
    return false;
  if (!page_range(p, len)) return true;  // Sub-page region: nothing to do.
#if NEMO_HAVE_MBIND
  return mbind_range(p, len, NEMO_MPOL_PREFERRED, 1ul << node);
#else
  return false;
#endif
}

bool interleave(void* p, std::size_t len) {
  if (!numa_bind_available()) return false;
  if (!page_range(p, len)) return true;
#if NEMO_HAVE_MBIND
  // Interleave only across nodes that exist — a bit for an absent node id
  // would make mbind return EINVAL on sparse layouts.
  return mbind_range(p, len, NEMO_MPOL_INTERLEAVE, host_node_mask());
#else
  return false;
#endif
}

}  // namespace nemo::shm
