// Figure 6: KNEM synchronous vs asynchronous models, with and without I/OAT.
//
// Paper's shape: offloading the copy to a kernel thread (async, no I/OAT)
// costs significant throughput (CPU competition); the asynchronous I/OAT
// model matches or beats the synchronous one.
#include "bench_common.hpp"
#include "common/options.hpp"

using namespace nemo;
using namespace nemo::bench;

namespace {

void json_row(std::vector<std::string>& rows, const char* block,
              const char* name, std::size_t bytes, double mibs) {
  char row[256];
  std::snprintf(row, sizeof row,
                "{\"block\": \"%s\", \"row\": \"%s\", \"bytes\": %zu, "
                "\"mibs\": %.1f}",
                block, name, bytes, mibs);
  rows.emplace_back(row);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  opt.declare("iters", "real-mode pingpong iterations (default 30)");
  opt.declare("skip-real", "only print the simulator block");
  opt.declare("json", "write all rows to this JSON file");
  opt.finalize();
  int iters = static_cast<int>(opt.get_int("iters", 30));

  std::vector<std::size_t> sizes = default_sizes();
  std::vector<SimStrategyRow> sim_rows{
      {"knem-sync", sim::Strategy::kKnem},
      {"knem-async", sim::Strategy::kKnemAsyncCopy},
      {"knem-sync+ioat", sim::Strategy::kKnemDma},
      {"knem-async+ioat", sim::Strategy::kKnemAsyncDma},
  };
  std::vector<std::string> rows;

  std::printf("# Figure 6 — KNEM synchronous vs asynchronous (MiB/s)\n");
  std::printf("\n[sim:e5345] cores 0,7\n");
  print_header(sizes);
  for (const auto& row : sim_rows) {
    std::vector<double> vals;
    for (auto s : sizes) {
      sim::LmtModels m(sim::e5345_machine(), row.opt);
      vals.push_back(m.pingpong_mibs(row.strategy, 0, 7, s));
      json_row(rows, "sim", row.name, s, vals.back());
    }
    print_row(row.name, vals);
  }

  if (!opt.get_flag("skip-real")) {
    warn_if_oversubscribed(2);
    std::printf("\n[real:this-host]\n");
    print_header(sizes);
    struct RealRow {
      const char* name;
      lmt::KnemMode mode;
    } real_rows[] = {
        {"knem-sync", lmt::KnemMode::kSyncCopy},
        {"knem-async", lmt::KnemMode::kAsyncCopy},
        {"knem-sync+ioat", lmt::KnemMode::kSyncDma},
        {"knem-async+ioat", lmt::KnemMode::kAsyncDma},
    };
    for (const auto& row : real_rows) {
      std::vector<double> vals;
      for (auto s : sizes) {
        // World's standard bring-up (core::run inside real_pingpong_mibs)
        // owns the tuned fastbox geometry; the row only
        // picks the LMT mechanism under comparison.
        core::Config cfg = cfg_for(lmt::LmtKind::kKnem, row.mode);
        // The kernel-thread competition effect needs rank/worker core
        // pinning; pin rank r to core r when the host allows it.
        cfg.core_binding = {0, 1};
        vals.push_back(real_pingpong_mibs(cfg, s, iters));
        json_row(rows, "real", row.name, s, vals.back());
      }
      print_row(row.name, vals);
    }
  }

  std::string json = opt.get("json", "");
  if (!json.empty() && !write_json_rows(json, "fig6_async", rows)) return 1;
  return 0;
}
