// nemo-tune: a read-only inspector for the tuning state every World starts
// from — the paper's formula table for a topology with the NEMO_* knobs
// resolved on top — and for the knob table itself. It writes no file.
//
//   build/nemo-tune                 # print the effective table (= --show)
//   build/nemo-tune --topo=e5345    # ... for one of the paper's hosts
//   build/nemo-tune --knobs         # list every NEMO_* knob
#include <cstdio>
#include <cstdlib>

#include "coll/coll.hpp"
#include "common/options.hpp"
#include "core/comm.hpp"
#include "core/knobs.hpp"
#include "shm/fastbox.hpp"
#include "shm/numa.hpp"
#include "tune/tuning.hpp"

using namespace nemo;

namespace {

void print_table(const core::Config& cfg) {
  const tune::TuningTable& t = *cfg.tuning;
  std::printf("tuning table (formula + knobs)\n");
  static const PairPlacement kAll[] = {PairPlacement::kSharedCache,
                                       PairPlacement::kSameSocketNoShare,
                                       PairPlacement::kDifferentSockets};
  for (PairPlacement p : kAll) {
    const tune::PlacementTuning& pt = t.for_placement(p);
    std::printf("  %-22s nt_min=%-8s push_nt=%d\n", to_string(p),
                pt.nt_min == SIZE_MAX ? "never"
                                      : format_size(pt.nt_min).c_str(),
                pt.push_nt ? 1 : 0);
  }
  std::printf("  lmt_activation=%s collective_activation=%s dma_min=%s\n",
              format_size(t.lmt_activation).c_str(),
              format_size(t.collective_activation).c_str(),
              t.dma_min == 0 ? "formula" : format_size(t.dma_min).c_str());
  std::printf("  fastbox: ring of %u records x %s (record payload %s, from "
              "lmt_activation)\n",
              t.fastbox_slots, format_size(t.fastbox_slot_bytes).c_str(),
              format_size(t.fastbox_slot_bytes -
                          shm::FastboxRecord::kHeaderBytes)
                  .c_str());
  std::printf("  coll: activation=%-8s slot=%s   (NEMO_COLL=%s)\n",
              format_size(t.coll_activation).c_str(),
              format_size(cfg.coll_slot_bytes).c_str(),
              coll::to_string(cfg.coll));
  std::printf("  simd: kernel=%s (running %s)\n",
              simd::choice_name(t.simd_kernel),
              simd::kernel_name(simd::resolve(t.simd_kernel)));
}

/// Narrate the NUMA placement the runtime would apply per placement class:
/// the decision for a representative core pair of each class, plus whether
/// this host can actually bind (mbind + >1 node).
void print_numa(const Topology& topo, shm::NumaPlacement mode) {
  std::printf("numa: mode=%s  topo-nodes=%d  host-nodes=%d  bind=%s\n",
              shm::to_string(mode), topo.num_numa_nodes(),
              shm::host_numa_nodes(),
              shm::numa_bind_available() ? "available"
                                         : "unavailable (first-touch)");
  static const PairPlacement kAll[] = {PairPlacement::kSharedCache,
                                       PairPlacement::kSameSocketNoShare,
                                       PairPlacement::kDifferentSockets};
  for (PairPlacement p : kAll) {
    auto pair = topo.find_pair(p);
    if (!pair) continue;
    shm::RegionPlacement r = shm::choose_region_placement(
        mode, topo, pair->first, pair->second);
    const char* what = r.interleave ? "interleaved across nodes"
                       : r.node >= 0 ? "receiver-side"
                                     : "first-touch";
    if (mode == shm::NumaPlacement::kSender && r.node >= 0)
      what = "sender-side";
    if (r.node >= 0)
      std::printf("  %-22s ring buffers -> %s (node %d)\n", to_string(p),
                  what, r.node);
    else
      std::printf("  %-22s ring buffers -> %s\n", to_string(p), what);
  }
}

/// `--knobs`: dump the NEMO_* knob table the runtime resolves every World
/// from, plus the process-environment value of each knob that is set.
void print_knobs() {
  std::printf("%-24s %-20s %-34s %s\n", "knob", "default", "values",
              "meaning");
  for (const Knob& k : knobs()) {
    std::printf("%-24s %-20s %-34s %s%s\n", k.name, k.def, k.values, k.doc,
                k.apply == nullptr ? " [process-wide]" : "");
    if (const char* v = std::getenv(k.name); v != nullptr && *v != '\0')
      std::printf("%-24s set: %s\n", "", v);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  opt.declare("topo", "host|e5345|x5460|nehalem (default host)");
  opt.declare("show", "print the effective table (the default action)");
  opt.declare("knobs", "list every NEMO_* environment knob and exit");
  opt.finalize();

  if (opt.get_flag("knobs")) {
    print_knobs();
    return 0;
  }

  std::string tname = opt.get("topo", "host");
  Topology topo = tname == "e5345"     ? xeon_e5345()
                  : tname == "x5460"   ? xeon_x5460()
                  : tname == "nehalem" ? nehalem()
                                       : detect_host();
  // Resolved the way any World would: formulas, then every knob.
  core::Config cfg;
  cfg.topo = topo;
  core::Config world = core::resolve_config(std::move(cfg));
  print_table(world);
  print_numa(topo, world.numa_placement);
  return 0;
}
