// Figure 4: IMB Pingpong throughput between 2 processes sharing a 4 MiB L2:
// default vs vmsplice vs KNEM vs KNEM+I/OAT — plus this repo's streaming
// ring ("default-nt": 4 buffers, non-temporal copies above NEMO_NT_MIN).
//
// Paper's shape: default and KNEM track each other; vmsplice below; I/OAT
// behind until ~1 MiB (DMAmin) then ahead, by ~2x at 4 MiB.
//
// The [real] block compares the current default pipeline against the seed's
// 2×32KiB memcpy ring ("default-seed") so the copy-pipeline speedup is
// directly visible; --json records those rows for the perf trajectory.
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
  opt.declare("json", "write [real] rows to this JSON file");
  opt.declare("telemetry", "write per-rank engine counters to this JSON file");
  opt.declare("trace", "write a nemo-trace/2 ring dump to this file");
  opt.finalize();
  int iters = static_cast<int>(opt.get_int("iters", 30));
  std::string trace_path = opt.get("trace", "");
  if (!trace_path.empty()) trace_into_rings();

  std::vector<std::size_t> sizes = default_sizes();
  sim::LmtModels::Options deep_ring;
  deep_ring.ring_bufs = 4;
  std::vector<SimStrategyRow> rows{
      {"default", sim::Strategy::kDefault, {}},
      {"default-nt", sim::Strategy::kDefaultNt, deep_ring},
      {"vmsplice", sim::Strategy::kVmsplice, {}},
      {"knem", sim::Strategy::kKnem, {}},
      {"knem+ioat", sim::Strategy::kKnemDma, {}},
  };

  std::printf(
      "# Figure 4 — Pingpong throughput (MiB/s), shared 4 MiB L2 pair\n");
  std::printf("\n[sim:e5345] cores 0,1 (shared L2)\n");
  run_sim_pingpong_block(sim::e5345_machine(), rows, 0, 1, sizes);

  if (!opt.get_flag("skip-real")) {
    warn_if_oversubscribed(2);
    std::printf("\n[real:this-host]\n");
    print_header(sizes);

    // The seed pipeline: 2×32KiB ring, cached memcpy only.
    core::Config seed_cfg = cfg_for(lmt::LmtKind::kDefaultShm);
    seed_cfg.ring_bufs = 2;
    seed_cfg.ring_buf_bytes = 32 * KiB;
    seed_cfg.env["NEMO_NT_MIN"] = "off";

    struct RealRow {
      const char* name;
      core::Config cfg;
    } real_rows[] = {
        {"default", cfg_for(lmt::LmtKind::kDefaultShm)},
        {"default-seed", seed_cfg},
        {"vmsplice", cfg_for(lmt::LmtKind::kVmsplice)},
        {"knem", cfg_for(lmt::LmtKind::kKnem)},
        {"knem+ioat",
         cfg_for(lmt::LmtKind::kKnem, lmt::KnemMode::kSyncDma)},
    };
    std::vector<std::string> json_rows;
    std::vector<tune::Counters> telemetry(2);
    std::vector<tune::Counters>* tel =
        opt.has("telemetry") ? &telemetry : nullptr;
    for (const auto& row : real_rows) {
      std::vector<double> vals;
      for (auto s : sizes) {
        double mibs = real_pingpong_mibs(row.cfg, s, iters, tel);
        vals.push_back(mibs);
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "{\"strategy\": \"%s\", \"bytes\": %zu, "
                      "\"mibs\": %.1f}",
                      row.name, s, mibs);
        json_rows.emplace_back(buf);
      }
      print_row(row.name, vals);
    }
    if (opt.has("json") &&
        !write_json_rows(opt.get("json", ""), "fig4_pingpong_shared",
                         json_rows))
      return 1;
    if (tel != nullptr &&
        !tune::write_telemetry(opt.get("telemetry", ""),
                               "fig4_pingpong_shared", telemetry.data(), 2))
      return 1;
  }
  if (!trace_path.empty()) {
    std::string err;
    if (!trace::write_dump(trace_path, &err)) {
      std::fprintf(stderr, "trace dump failed: %s\n", err.c_str());
      return 1;
    }
    std::printf("wrote %s\n", trace_path.c_str());
  }
  return 0;
}
