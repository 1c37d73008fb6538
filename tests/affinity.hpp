// CPU-affinity helper for tests whose ranks must run side by side.
#pragma once

#include <sched.h>

#include <vector>

namespace nemo::test {

/// The first two CPUs of this process's affinity mask (fewer if it holds
/// fewer).
inline std::vector<int> two_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE && cpus.size() < 2; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

}  // namespace nemo::test
