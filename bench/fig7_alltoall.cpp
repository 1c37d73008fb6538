// Figure 7: IMB Alltoall aggregated throughput between 8 local processes:
// default vs vmsplice vs KNEM vs KNEM+I/OAT — plus this repo's shm
// collective arena ("shm-coll"), which halves the copy volume by letting
// every reader pull blocks straight from the writers' arena-resident rows.
//
// Paper's shape: KNEM up to ~5x default near 32 KiB; I/OAT ~2x at very large
// sizes (and already attractive from ~200 KiB because 8 concurrent flows
// saturate the bus earlier than DMAmin predicts, §4.4).
#include <cstdlib>

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
  opt.declare("ranks", "rank count for the real block (default 8)");
  opt.declare("iters", "real-mode rounds per size (default 8)");
  opt.declare("skip-real", "only print the simulator block");
  opt.declare("json", "write all rows to this JSON file");
  opt.declare("trace", "write a nemo-trace/2 ring dump to this file");
  opt.finalize();
  int nranks = static_cast<int>(opt.get_int("ranks", 8));
  int iters = static_cast<int>(opt.get_int("iters", 8));
  std::string trace_path = opt.get("trace", "");
  if (!trace_path.empty()) trace_into_rings();

  std::vector<std::size_t> sizes = alltoall_sizes();
  std::vector<int> cores{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<std::string> rows;

  std::printf(
      "# Figure 7 — Alltoall aggregated throughput (MiB/s), 8 ranks\n");
  std::printf("\n[sim:e5345] all 8 cores\n");
  print_header(sizes);
  struct SimRow {
    const char* name;
    sim::Strategy s;
  } sim_rows[] = {
      {"default", sim::Strategy::kDefault},
      {"vmsplice", sim::Strategy::kVmsplice},
      {"knem", sim::Strategy::kKnem},
      {"knem+ioat", sim::Strategy::kKnemDma},
  };
  for (const auto& row : sim_rows) {
    std::vector<double> vals;
    for (auto s : sizes) {
      sim::LmtModels m(sim::e5345_machine());
      vals.push_back(m.alltoall_mibs(row.s, cores, s, 2));
      json_row(rows, "sim", row.name, s, vals.back());
    }
    print_row(row.name, vals);
  }
  {
    std::vector<double> vals;
    for (auto s : sizes) {
      sim::LmtModels m(sim::e5345_machine());
      vals.push_back(m.alltoall_coll(true, cores, s, 2).mibs);
      json_row(rows, "sim", "shm-coll", s, vals.back());
    }
    print_row("shm-coll", vals);
    // Modeled timeline through the same exporter the real rings use: one
    // kCollOp span per size on a synthetic rank, duration straight from the
    // simulator's aggregate throughput.
    if (!trace_path.empty()) {
      trace::RankDump sd;
      sd.rank = -2;  // first synthetic ("sim rank 0") tid
      sd.ns_timestamps = true;
      std::uint64_t clock_ns = 0;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        double mibs = vals[i];
        if (mibs <= 0) continue;
        double round_bytes = static_cast<double>(cores.size()) *
                             static_cast<double>(cores.size() - 1) *
                             static_cast<double>(sizes[i]);
        auto dur = static_cast<std::uint64_t>(round_bytes /
                                              (mibs * MiB) * 1e9);
        sd.events.push_back({clock_ns, trace::kCollOp, trace::kBegin, 0,
                             trace::kOpAlltoall, sizes[i]});
        clock_ns += dur;
        sd.events.push_back({clock_ns, trace::kCollOp, trace::kEnd, 0, 0, 0});
        clock_ns += dur / 8 + 1;  // Gap so consecutive spans stay distinct.
      }
      trace::append_synthetic_rank(std::move(sd));
    }
  }

  if (!opt.get_flag("skip-real")) {
    warn_if_oversubscribed(nranks);
    std::printf("\n[real:this-host] %d thread ranks\n", nranks);
    print_header(sizes);
    struct RealRow {
      const char* name;
      lmt::LmtKind kind;
      lmt::KnemMode mode;
      coll::Mode coll;
    } real_rows[] = {
        // The LMT rows pin collectives to the pt2pt algorithms so they keep
        // comparing rendezvous backends; the last row is the arena path.
        {"default", lmt::LmtKind::kDefaultShm, lmt::KnemMode::kSyncCopy,
         coll::Mode::kP2p},
        {"vmsplice", lmt::LmtKind::kVmsplice, lmt::KnemMode::kSyncCopy,
         coll::Mode::kP2p},
        {"knem", lmt::LmtKind::kKnem, lmt::KnemMode::kSyncCopy,
         coll::Mode::kP2p},
        {"knem+ioat", lmt::LmtKind::kKnem, lmt::KnemMode::kAsyncDma,
         coll::Mode::kP2p},
        {"shm-coll", lmt::LmtKind::kDefaultShm, lmt::KnemMode::kSyncCopy,
         coll::Mode::kShm},
    };
    for (const auto& row : real_rows) {
      std::vector<double> vals;
      for (auto s : sizes) {
        // The label claims a collective family: pin it over the ambient
        // NEMO_COLL.
        core::Config cfg = cfg_for(row.kind, row.mode);
        cfg.env["NEMO_COLL"] = coll::to_string(row.coll);
        vals.push_back(real_alltoall_mibs(cfg, nranks, s, iters));
        json_row(rows, "real", row.name, s, vals.back());
      }
      print_row(row.name, vals);
    }
  }

  std::string json = opt.get("json", "");
  if (!json.empty() && !write_json_rows(json, "fig7_alltoall", rows))
    return 1;
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
