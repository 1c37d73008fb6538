// Domain-specific example: an "LMT tuner" that inspects a machine topology
// and prints the policy decisions the library would take — which backend per
// core pair, the DMAmin threshold per core, and the activation thresholds.
//
//   build/examples/lmt_tuner                   # this host
//   build/examples/lmt_tuner --topo=e5345      # the paper's machine
#include <cstdio>

#include "common/options.hpp"
#include "knem/knem_device.hpp"
#include "lmt/policy.hpp"
#include "shm/pipes.hpp"
#include "shm/nt_copy.hpp"
#include "shm/remote_mem.hpp"
#include "tune/tuning.hpp"

using namespace nemo;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  opt.declare("topo", "host|e5345|x5460|nehalem (default host)");
  opt.declare("msg", "message size for decisions (default 1MiB)");
  opt.finalize();

  std::string t = opt.get("topo", "host");
  Topology topo = t == "e5345"     ? xeon_e5345()
                  : t == "x5460"   ? xeon_x5460()
                  : t == "nehalem" ? nehalem()
                                   : detect_host();
  std::size_t msg = opt.get_size("msg", 1 * MiB);

  std::printf("topology: %s, %d cores\n", topo.name.c_str(), topo.num_cores);
  for (const auto& c : topo.caches)
    if (c.level >= 2)
      std::printf("  L%d %s shared by %zu core(s)\n", c.level,
                  format_size(c.size_bytes).c_str(), c.cores.size());

  std::printf("\nhost capabilities: vmsplice=%s cma=%s nt-stores=%s\n",
              shm::Pipe::vmsplice_available() ? "yes" : "no",
              shm::cma_available() ? "yes" : "no",
              shm::nt_copy_available() ? "yes" : "no");

  const tune::TuningTable table = tune::effective_table(topo);
  lmt::PolicyConfig pc;
  lmt::Policy policy(topo, pc, table);
  std::printf("\nactivation: eager -> LMT at >%s (pingpong), >%s (collective)\n",
              format_size(table.lmt_activation).c_str(),
              format_size(table.collective_activation).c_str());

  std::printf("\nDMAmin per core (cache/(2*sharers)):\n");
  for (int c = 0; c < topo.num_cores; ++c)
    std::printf("  core %2d -> %s\n", c,
                format_size(policy.dma_min_for(c)).c_str());

  std::printf("\nper-pair decisions for %s messages (KNEM loadable):\n",
              format_size(msg).c_str());
  int pairs = 0;
  for (int a = 0; a < topo.num_cores && pairs < 12; ++a)
    for (int b = a + 1; b < topo.num_cores && pairs < 12; ++b, ++pairs) {
      lmt::LmtKind kind = policy.choose_kind(a, b);
      std::uint32_t flags = policy.knem_flags(msg, b, lmt::KnemMode::kAuto);
      std::printf("  (%d,%d) %-22s -> %-10s %s\n", a, b,
                  to_string(topo.classify(a, b)), to_string(kind),
                  kind == lmt::LmtKind::kKnem
                      ? ((flags & knem::kFlagDma) ? "[dma,async]"
                                                  : "[cpu,sync]")
                      : "");
    }

  lmt::PolicyConfig no_knem = pc;
  no_knem.knem_available = false;
  lmt::Policy policy2(topo, no_knem, table);
  std::printf("\nsame, when loading a kernel module is NOT acceptable:\n");
  pairs = 0;
  for (int a = 0; a < topo.num_cores && pairs < 6; ++a)
    for (int b = a + 1; b < topo.num_cores && pairs < 6; ++b, ++pairs)
      std::printf("  (%d,%d) %-22s -> %s\n", a, b,
                  to_string(topo.classify(a, b)),
                  to_string(policy2.choose_kind(a, b)));
  return 0;
}
