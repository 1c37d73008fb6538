// Shared benchmark plumbing: measured (real-runtime) pingpong/alltoall
// drivers and table/series printers. Every figure bench prints two blocks:
//   [sim]  — deterministic series from the cache-simulator replay models,
//            configured as the paper's Xeon E5345;
//   [real] — wall-clock numbers from this host's actual runtime (threads over
//            the shared arena, real vmsplice pipes, the KNEM device, NT-copy DMA).
// EXPERIMENTS.md grounds its shape claims on [sim] and uses [real] as
// corroboration, since the host is not a 2009 Clovertown.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/timing.hpp"
#include "core/comm.hpp"
#include "core/knobs.hpp"
#include "shm/process_runner.hpp"
#include "sim/lmt_models.hpp"

namespace nemo::bench {

/// Knob pins every bench world starts from (`--trace` adds NEMO_TRACE).
inline std::map<std::string, std::string> g_pins;

/// A Config carrying the bench-wide pins plus `extra` (extra wins): the
/// label of a row that claims one collective family, kernel or schedule
/// must not be redirected by an ambient knob.
inline core::Config pinned_config(
    const std::map<std::string, std::string>& extra = {}) {
  core::Config cfg;
  cfg.env = g_pins;
  for (const auto& [k, v] : extra) cfg.env[k] = v;
  return cfg;
}

/// `--trace=FILE`: record into the rings unless the environment already
/// picked a mode (NEMO_TRACE=full upgrades the recording, never downgrades
/// it).
inline void trace_into_rings() {
  if (core::resolve_config(core::Config{}).trace != trace::Mode::kOff) return;
  g_pins["NEMO_TRACE"] = "rings";
  trace::set_mode(trace::Mode::kRings);
}

/// Print a fidelity warning when the host cannot actually run the ranks in
/// parallel (the [real] numbers then measure scheduler latency, not the
/// transfer mechanisms).
inline void warn_if_oversubscribed(int nranks) {
  int cores = shm::available_cores();
  if (cores < nranks)
    std::printf(
        "NOTE: host exposes %d core(s) for %d ranks; [real] numbers are "
        "dominated by time-slicing and are NOT meaningful. Use the [sim] "
        "block for shape comparisons.\n",
        cores, nranks);
}

inline std::vector<std::size_t> default_sizes() {
  return {64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB,
          1 * MiB,  2 * MiB,   4 * MiB};
}

inline std::vector<std::size_t> alltoall_sizes() {
  return {4 * KiB,   16 * KiB, 64 * KiB, 256 * KiB,
          1 * MiB,   4 * MiB};
}

/// Print one series row: name then one value per size.
inline void print_header(const std::vector<std::size_t>& sizes) {
  std::printf("%-24s", "strategy \\ size");
  for (auto s : sizes) std::printf(" %9s", format_size(s).c_str());
  std::printf("\n");
}

inline void print_row(const std::string& name,
                      const std::vector<double>& vals) {
  std::printf("%-24s", name.c_str());
  for (double v : vals) std::printf(" %9.0f", v);
  std::printf("\n");
}

/// Measured pingpong between ranks 0 and 1 of a 2-rank world. Returns
/// one-way MiB/s (IMB convention) as measured on rank 0. When `telemetry`
/// is given (sized >= 2), each rank's engine counters are accumulated into
/// its slot so the caller can dump a --telemetry JSON across runs.
inline double real_pingpong_mibs(core::Config cfg, std::size_t bytes,
                                 int iters = 30,
                                 std::vector<tune::Counters>* telemetry =
                                     nullptr) {
  cfg.nranks = 2;
  cfg.shared_pool_bytes = std::max<std::size_t>(cfg.shared_pool_bytes,
                                                4 * bytes + 8 * MiB);
  double result = 0;
  core::run(cfg, [&](core::Comm& comm) {
    // Arena-resident buffers so the I/OAT-like path can stream directly
    // even in process mode (MPI_Alloc_mem analogue).
    std::byte* buf = comm.shared_alloc(bytes);
    pattern_fill({buf, bytes}, 1);
    int peer = 1 - comm.rank();
    // Warm-up.
    for (int i = 0; i < 3; ++i) {
      if (comm.rank() == 0) {
        comm.send(buf, bytes, peer, 1);
        comm.recv(buf, bytes, peer, 2);
      } else {
        comm.recv(buf, bytes, peer, 1);
        comm.send(buf, bytes, peer, 2);
      }
    }
    comm.hard_barrier();
    // Per-iteration round-trip samples feed the pt2pt latency histogram
    // only while tracing is on; the throughput row keeps the untimed loop.
    trace::Histogram* lat_hist =
        trace::on() && comm.rank() == 0
            ? &trace::registry().hist("pt2pt.pingpong_rtt_ns")
            : nullptr;
    Timer t;
    for (int i = 0; i < iters; ++i) {
      std::uint64_t it0 = lat_hist != nullptr ? now_ns() : 0;
      if (comm.rank() == 0) {
        comm.send(buf, bytes, peer, 1);
        comm.recv(buf, bytes, peer, 2);
      } else {
        comm.recv(buf, bytes, peer, 1);
        comm.send(buf, bytes, peer, 2);
      }
      if (lat_hist != nullptr) lat_hist->record(now_ns() - it0);
    }
    std::uint64_t ns = t.elapsed_ns();
    if (comm.rank() == 0) {
      double oneway_ns =
          static_cast<double>(ns) / (2.0 * static_cast<double>(iters));
      result = (static_cast<double>(bytes) / (1024.0 * 1024.0)) /
               (oneway_ns * 1e-9);
    }
    if (telemetry != nullptr) {
      comm.hard_barrier();  // Quiesce before reading peers' epochs end.
      (*telemetry)[static_cast<std::size_t>(comm.rank())] +=
          comm.engine().counters();
    }
  });
  return result;
}

/// Measured alltoall aggregate throughput for `nranks` thread ranks.
inline double real_alltoall_mibs(core::Config cfg, int nranks,
                                 std::size_t per_pair, int iters = 10) {
  cfg.nranks = nranks;
  std::size_t matrix = per_pair * static_cast<std::size_t>(nranks);
  cfg.shared_pool_bytes =
      std::max<std::size_t>(cfg.shared_pool_bytes,
                            2 * matrix * static_cast<std::size_t>(nranks) +
                                16 * MiB);
  double result = 0;
  core::run(cfg, [&](core::Comm& comm) {
    std::byte* send = comm.shared_alloc(matrix);
    std::byte* recv = comm.shared_alloc(matrix);
    pattern_fill({send, matrix}, static_cast<std::uint64_t>(comm.rank()));
    comm.alltoall(send, per_pair, recv);  // Warm-up.
    comm.hard_barrier();
    Timer t;
    for (int i = 0; i < iters; ++i) comm.alltoall(send, per_pair, recv);
    std::uint64_t ns = t.elapsed_ns();
    comm.hard_barrier();
    if (comm.rank() == 0) {
      double bytes_per_round = static_cast<double>(nranks) *
                               static_cast<double>(nranks - 1) *
                               static_cast<double>(per_pair);
      result = (bytes_per_round * iters / (1024.0 * 1024.0)) /
               (static_cast<double>(ns) * 1e-9);
    }
  });
  return result;
}

/// Config helpers for the concrete strategies a figure compares.
inline core::Config cfg_for(lmt::LmtKind kind,
                            lmt::KnemMode mode = lmt::KnemMode::kSyncCopy) {
  core::Config cfg = pinned_config();
  cfg.lmt = kind;
  cfg.knem_mode = mode;
  return cfg;
}

struct SimStrategyRow {
  const char* name;
  sim::Strategy strategy;
  sim::LmtModels::Options opt{};  ///< Ring geometry etc. for this row.
};

inline void run_sim_pingpong_block(const sim::SimMachine& machine,
                                   const std::vector<SimStrategyRow>& rows,
                                   int core_a, int core_b,
                                   const std::vector<std::size_t>& sizes) {
  print_header(sizes);
  for (const auto& row : rows) {
    std::vector<double> vals;
    for (auto s : sizes) {
      sim::LmtModels m(machine, row.opt);
      vals.push_back(m.pingpong_mibs(row.strategy, core_a, core_b, s));
    }
    print_row(row.name, vals);
  }
}

/// Minimal JSON results file: one {"bench": ..., "rows": [...]} object.
/// Rows are pre-formatted JSON objects so each bench controls its schema.
/// Returns false (after printing to stderr) when the file cannot be opened.
inline bool write_json_rows(const std::string& path, const std::string& bench,
                            const std::vector<std::string>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\"bench\": \"%s\", \"rows\": [\n", bench.c_str());
  for (std::size_t i = 0; i < rows.size(); ++i)
    std::fprintf(f, "  %s%s\n", rows[i].c_str(),
                 i + 1 < rows.size() ? "," : "");
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace nemo::bench
