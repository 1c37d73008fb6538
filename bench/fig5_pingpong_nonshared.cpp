// Figure 5: IMB Pingpong throughput between 2 processes NOT sharing any
// cache: default vs vmsplice vs KNEM vs KNEM+I/OAT.
//
// Paper's shape: KNEM clearly ahead (up to >3x default, ~2x vmsplice);
// vmsplice above default; I/OAT takes over for the largest messages.
#include <cstdlib>
#include <string_view>

#include "bench_common.hpp"
#include "common/options.hpp"

using namespace nemo;
using namespace nemo::bench;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  opt.declare("iters", "real-mode pingpong iterations (default 30)");
  opt.declare("skip-real", "only print the simulator block");
  opt.finalize();
  int iters = static_cast<int>(opt.get_int("iters", 30));

  std::vector<std::size_t> sizes = default_sizes();
  std::vector<SimStrategyRow> rows{
      {"default", sim::Strategy::kDefault},
      {"vmsplice", sim::Strategy::kVmsplice},
      {"knem", sim::Strategy::kKnem},
      {"knem+ioat", sim::Strategy::kKnemDma},
  };

  std::printf(
      "# Figure 5 — Pingpong throughput (MiB/s), no shared cache\n");
  std::printf("\n[sim:e5345] cores 0,7 (different sockets)\n");
  run_sim_pingpong_block(sim::e5345_machine(), rows, 0, 7, sizes);
  std::printf("\n[sim:e5345] cores 0,2 (same socket, different dies)\n");
  run_sim_pingpong_block(sim::e5345_machine(), rows, 0, 2, sizes);

  if (!opt.get_flag("skip-real")) {
    warn_if_oversubscribed(2);
    std::printf("\n[real:this-host]\n");
    print_header(sizes);
    struct RealRow {
      const char* name;
      lmt::LmtKind kind;
      lmt::KnemMode mode;
    } real_rows[] = {
        {"default", lmt::LmtKind::kDefaultShm, lmt::KnemMode::kSyncCopy},
        {"vmsplice", lmt::LmtKind::kVmsplice, lmt::KnemMode::kSyncCopy},
        {"knem", lmt::LmtKind::kKnem, lmt::KnemMode::kSyncCopy},
        {"knem+ioat", lmt::LmtKind::kKnem, lmt::KnemMode::kSyncDma},
    };
    for (const auto& row : real_rows) {
      std::vector<double> vals;
      for (auto s : sizes)
        vals.push_back(
            real_pingpong_mibs(cfg_for(row.kind, row.mode), s, iters));
      print_row(row.name, vals);
    }
  }
  return 0;
}
