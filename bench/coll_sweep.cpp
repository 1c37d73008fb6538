// Collective sweep: the shm collective arena vs the pt2pt algorithms, per
// (op, rank count, size), as wall-clock time on this host's runtime. This
// is the bench behind bench/results/BENCH_coll.json. Further sections time
// the fold kernels, allreduce with a forced kernel or heap operands, the
// cell exchange, the strided alltoall, the arena barrier per rank count,
// and the trace and liveness overheads. The full sweep adds the family
// crossover with fresh operands, in threads and procs worlds. The simulator
// does not replay the arena collectives; every number here is measured.
#include <sched.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "bench_common.hpp"
#include "common/options.hpp"
#include "core/datatype.hpp"
#include "simd/simd.hpp"

using namespace nemo;
using namespace nemo::bench;

namespace {

/// Wall-clock microseconds per operation, median of `samples` timed bursts.
/// Buffers are shared_alloc'd (arena-resident) so the shm path exercises
/// its direct-read mode — the Nemesis single-copy ideal. With `heap` they
/// are private vectors instead, as most callers' buffers are: read in place
/// in this threads-mode world all the same.
double real_coll_us(coll::Mode mode, const char* op, int nranks,
                    std::size_t bytes, int iters, int samples,
                    std::map<std::string, std::string> pins = {},
                    bool heap = false) {
  // The mode IS the row being measured; pin it so an ambient NEMO_COLL
  // cannot silently redirect it.
  pins["NEMO_COLL"] = coll::to_string(mode);
  core::Config cfg = pinned_config(pins);
  cfg.nranks = nranks;
  bool alltoall = std::strcmp(op, "alltoall") == 0;
  bool allreduce = std::strcmp(op, "allreduce") == 0;
  bool allgather = std::strcmp(op, "allgather") == 0;
  std::size_t matrix =
      alltoall || allgather ? bytes * static_cast<std::size_t>(nranks)
                            : bytes;
  // Every rank shared_allocs its buffers out of the one pool.
  cfg.shared_pool_bytes =
      2 * matrix * static_cast<std::size_t>(nranks) + 16 * MiB;
  double result = 0;
  core::run(cfg, [&](core::Comm& comm) {
    std::vector<std::byte> heap_bufs(heap ? 2 * matrix : 0);
    std::byte* send = heap ? heap_bufs.data() : comm.shared_alloc(matrix);
    std::byte* recv = heap ? heap_bufs.data() + matrix
                      : (alltoall || allreduce || allgather)
                          ? comm.shared_alloc(matrix)
                          : nullptr;
    pattern_fill({send, matrix}, static_cast<std::uint64_t>(comm.rank()));
    std::size_t elems = bytes / sizeof(double);
    std::vector<double> us;
    for (int s = 0; s < samples + 1; ++s) {  // First burst = warm-up.
      comm.hard_barrier();
      Timer t;
      for (int i = 0; i < iters; ++i) {
        if (alltoall)
          comm.alltoall(send, bytes, recv);
        else if (allreduce)
          comm.allreduce_f64(reinterpret_cast<const double*>(send),
                             reinterpret_cast<double*>(recv), elems,
                             core::Comm::ReduceOp::kSum);
        else if (allgather)
          comm.allgather(send, bytes, recv);
        else
          comm.bcast(send, bytes, 0);
      }
      std::uint64_t ns = t.elapsed_ns();
      if (comm.rank() == 0 && s > 0)
        us.push_back(static_cast<double>(ns) / (1000.0 * iters));
    }
    if (comm.rank() == 0) {
      std::sort(us.begin(), us.end());
      result = us[us.size() / 2];
    }
  });
  return result;
}

/// The first `n` CPUs of this process's affinity mask, one per rank, or none
/// when it holds fewer (the ranks then float).
std::vector<int> distinct_cpus(int n) {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE && static_cast<int>(cpus.size()) < n; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  if (static_cast<int>(cpus.size()) < n) cpus.clear();
  return cpus;
}

/// Microseconds per op with fresh heap operands, in a `world_mode`
/// ("threads" or "procs") world. Before every op each rank rewrites its
/// send operand (the bcast root its buffer), so no reader finds its own
/// cached copy of it, as in an application that computes between ops. The
/// ranks, each on its own CPU where the host has enough, then start together
/// and each times the op alone; an op's sample is its slowest rank's time,
/// and the median over `ops` ops is kept. The per-rank times travel through
/// a shared anonymous mapping, which forked ranks inherit.
double fresh_coll_us(coll::Mode mode, const char* op, const char* world_mode,
                     int nranks, std::size_t bytes, int ops) {
  core::Config cfg = pinned_config({{"NEMO_COLL", coll::to_string(mode)},
                                    {"NEMO_WORLD_MODE", world_mode}});
  cfg.nranks = nranks;
  cfg.core_binding = distinct_cpus(nranks);
  bool alltoall = std::strcmp(op, "alltoall") == 0;
  bool allreduce = std::strcmp(op, "allreduce") == 0;
  bool allgather = std::strcmp(op, "allgather") == 0;
  bool bcast = !alltoall && !allreduce && !allgather;
  auto n = static_cast<std::size_t>(nranks);
  constexpr int kWarmup = 16;
  std::size_t slots = n * static_cast<std::size_t>(ops);
  void* map = ::mmap(nullptr, slots * sizeof(double), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) return 0;
  auto* ns = static_cast<double*>(map);  // [rank][op]
  std::fflush(stdout);  // A forked rank would print what is buffered again.
  bool ok = core::run(cfg, [&](core::Comm& comm) {
    auto me = static_cast<std::size_t>(comm.rank());
    std::size_t in_bytes = alltoall ? bytes * n : bytes;
    std::vector<std::byte> in(in_bytes), out(alltoall || allgather
                                                 ? bytes * n
                                                 : bytes);
    for (int i = -kWarmup; i < ops; ++i) {
      // Small byte values keep the allreduce operands finite doubles.
      int fill = static_cast<int>((static_cast<std::size_t>(i + kWarmup) + me) &
                                  0x3f);
      if (!bcast || me == 0) std::memset(in.data(), fill, in_bytes);
      comm.hard_barrier();
      Timer t;
      if (alltoall)
        comm.alltoall(in.data(), bytes, out.data());
      else if (allreduce)
        comm.allreduce_f64(reinterpret_cast<const double*>(in.data()),
                           reinterpret_cast<double*>(out.data()),
                           bytes / sizeof(double), core::Comm::ReduceOp::kSum);
      else if (allgather)
        comm.allgather(in.data(), bytes, out.data());
      else
        comm.bcast(in.data(), bytes, 0);
      auto elapsed = static_cast<double>(t.elapsed_ns());
      if (i >= 0) ns[me * static_cast<std::size_t>(ops) +
                     static_cast<std::size_t>(i)] = elapsed;
    }
  });
  std::vector<double> worst(static_cast<std::size_t>(ops), 0.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t i = 0; i < worst.size(); ++i)
      worst[i] = std::max(worst[i], ns[r * worst.size() + i]);
  ::munmap(map, slots * sizeof(double));
  if (!ok) return 0;
  std::sort(worst.begin(), worst.end());
  return worst[worst.size() / 2] / 1000.0;
}

/// MiB/s of the vertical fold a reduction runs per merged operand
/// (dst[i] += src[i], f64) under the given kernel. In-process — no world,
/// no transport — so the row isolates the compute half of the reduction.
double fold_mibs(simd::Kernel k, std::size_t bytes, int iters, int samples) {
  std::size_t n = bytes / sizeof(double);
  std::vector<double> dst(n, 1.0);
  std::vector<double> src(n, 1.0 + 1.0 / 4096.0);
  std::vector<double> mibs;
  for (int s = 0; s < samples + 1; ++s) {  // First burst = warm-up.
    std::fill(dst.begin(), dst.end(), 1.0);
    Timer t;
    for (int i = 0; i < iters; ++i)
      simd::fold(k, simd::Op::kSum, dst.data(), src.data(), n);
    std::uint64_t ns = t.elapsed_ns();
    if (s > 0 && ns > 0)
      mibs.push_back(static_cast<double>(bytes) * iters * 1e9 /
                     (static_cast<double>(ns) * MiB));
  }
  if (mibs.empty()) return 0.0;
  std::sort(mibs.begin(), mibs.end());
  return mibs[mibs.size() / 2];
}

/// Strided alltoall: each per-pair contribution is `bytes` of payload laid
/// out as 1 KiB blocks every 2 KiB (a half-dense vector datatype). Strided
/// ops are pt2pt only: both sides lower to segment lists, so there is no
/// contiguous staging copy — this row guards that.
double real_strided_us(int nranks, std::size_t bytes, int iters,
                       int samples) {
  core::Config cfg = pinned_config({{"NEMO_COLL", "p2p"}});
  cfg.nranks = nranks;
  core::Datatype dt = core::Datatype::vector(bytes / KiB, KiB, 2 * KiB);
  std::size_t matrix = dt.extent() * static_cast<std::size_t>(nranks);
  cfg.shared_pool_bytes =
      2 * matrix * static_cast<std::size_t>(nranks) + 16 * MiB;
  double result = 0;
  core::run(cfg, [&](core::Comm& comm) {
    std::byte* send = comm.shared_alloc(matrix);
    std::byte* recv = comm.shared_alloc(matrix);
    pattern_fill({send, matrix}, static_cast<std::uint64_t>(comm.rank()));
    std::vector<double> us;
    for (int s = 0; s < samples + 1; ++s) {
      comm.hard_barrier();
      Timer t;
      for (int i = 0; i < iters; ++i)
        comm.alltoall_strided(send, dt, 1, recv, dt);
      std::uint64_t ns = t.elapsed_ns();
      if (comm.rank() == 0 && s > 0)
        us.push_back(static_cast<double>(ns) / (1000.0 * iters));
    }
    if (comm.rank() == 0) {
      std::sort(us.begin(), us.end());
      result = us[us.size() / 2];
    }
  });
  return result;
}

/// Microseconds per arena-barrier round (shm arena path forced).
double real_barrier_us(int nranks, int iters, int samples) {
  core::Config cfg = pinned_config({{"NEMO_COLL", "shm"}});
  cfg.nranks = nranks;
  double result = 0;
  core::run(cfg, [&](core::Comm& comm) {
    std::vector<double> us;
    for (int s = 0; s < samples + 1; ++s) {
      comm.hard_barrier();
      Timer t;
      for (int i = 0; i < iters; ++i) comm.barrier();
      std::uint64_t ns = t.elapsed_ns();
      if (comm.rank() == 0 && s > 0)
        us.push_back(static_cast<double>(ns) / (1000.0 * iters));
    }
    if (comm.rank() == 0) {
      std::sort(us.begin(), us.end());
      result = us[us.size() / 2];
    }
  });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  opt.declare("json", "write rows to this JSON file");
  opt.declare("iters", "ops per timed burst (default 8)");
  opt.declare("samples", "timed bursts per point, median kept (default 3)");
  opt.declare("smoke", "few points / fewer iters (bench_smoke)");
  opt.declare("trace", "write a nemo-trace/2 ring dump to this file");
  opt.finalize();
  // Every timing is taken on rank 0 and returned through a variable of this
  // process. Forked ranks cannot hand it back, and each would flush the
  // stdio buffer it inherited, so the sweep runs threads worlds only.
  if (core::resolve_config(pinned_config()).mode ==
      core::LaunchMode::kProcesses) {
    std::fprintf(stderr,
                 "coll_sweep: the sweep is threads-only; unset "
                 "NEMO_WORLD_MODE or set it to threads\n");
    return 2;
  }
  bool smoke = opt.get_flag("smoke");
  int iters = static_cast<int>(opt.get_int("iters", smoke ? 4 : 8));
  int samples = static_cast<int>(opt.get_int("samples", 3));
  std::string trace_path = opt.get("trace", "");
  if (!trace_path.empty()) trace_into_rings();

  std::vector<int> rank_counts = smoke ? std::vector<int>{4, 8}
                                       : std::vector<int>{2, 4, 8};
  std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{64 * KiB, 256 * KiB}
            : std::vector<std::size_t>{1 * KiB,   4 * KiB,  16 * KiB,
                                       64 * KiB,  256 * KiB, 1 * MiB,
                                       4 * MiB};
  const char* ops[] = {"bcast", "alltoall", "allreduce"};

  warn_if_oversubscribed(rank_counts.back());
  std::printf("# Collective sweep — p2p vs shm arena\n");
  std::printf("%-9s %5s %9s %5s %12s %12s\n", "op", "ranks", "bytes", "path",
              "wall_us", "note");

  std::vector<std::string> rows;
  for (const char* op : ops) {
    for (int nranks : rank_counts) {
      for (std::size_t bytes : sizes) {
        // The per-size payload is the op's symmetric measure: bcast total
        // bytes, alltoall per-pair block, allreduce operand bytes.
        for (bool shm : {false, true}) {
          double wall_us =
              real_coll_us(shm ? coll::Mode::kShm : coll::Mode::kP2p, op,
                           nranks, bytes, iters, samples);
          const char* path = shm ? "shm" : "p2p";
          std::printf("%-9s %5d %9zu %5s %12.1f\n", op, nranks, bytes, path,
                      wall_us);
          char row[512];
          std::snprintf(row, sizeof row,
                        "{\"op\": \"%s\", \"ranks\": %d, \"bytes\": %zu, "
                        "\"mode\": \"%s\", \"wall_us\": %.2f}",
                        op, nranks, bytes, path, wall_us);
          rows.emplace_back(row);
        }
      }
    }
  }

  // Reduction-kernel microbench: one row per kernel this binary can run,
  // `mibs` higher-is-better. The committed baseline must show the
  // vectorized rows clearing the scalar row by the ISSUE's 1.5x margin at
  // 256 KiB; the gate then keeps every kernel from regressing.
  std::printf("# Fold kernels — scalar vs vectorized vertical reduce "
              "(note = MiB/s)\n");
  int fold_iters = smoke ? 64 : 256;
  for (std::size_t bytes : {64 * KiB, 256 * KiB}) {
    for (simd::Kernel k : {simd::Kernel::kScalar, simd::Kernel::kAvx2,
                           simd::Kernel::kAvx512}) {
      if (!simd::kernel_supported(k)) continue;
      double mibs = fold_mibs(k, bytes, fold_iters, samples);
      const char* kn = simd::kernel_name(k);
      std::printf("%-9s %5d %9zu %6s %12s %12.0f\n", "fold", 1, bytes, kn, "-",
                  mibs);
      char row[512];
      std::snprintf(row, sizeof row,
                    "{\"op\": \"fold\", \"ranks\": 1, \"bytes\": %zu, "
                    "\"mode\": \"%s\", \"mibs\": %.1f}",
                    bytes, kn, mibs);
      rows.emplace_back(row);
    }
  }

  // End-to-end effect of the kernel choice: allreduce with NEMO_SIMD pinned
  // (resolved at world construction, so it lands on the shm partitioned
  // fold and the p2p combine loop alike).
  std::printf("# Allreduce — fold kernel forced via NEMO_SIMD\n");
  const char* best_kn = simd::kernel_name(simd::best_supported());
  std::vector<const char*> forced_kernels{"scalar"};
  if (std::strcmp(best_kn, "scalar") != 0) forced_kernels.push_back(best_kn);
  for (const char* kn : forced_kernels) {
    for (bool shm : {false, true}) {
      coll::Mode mode = shm ? coll::Mode::kShm : coll::Mode::kP2p;
      double wall_us = real_coll_us(mode, "allreduce", 8, 256 * KiB, iters,
                                    samples, {{"NEMO_SIMD", kn}});
      const char* path = shm ? "shm" : "p2p";
      std::printf("%-9s %5d %9zu %5s %12.1f %12s\n", "allreduce", 8,
                  256 * KiB, path, wall_us, kn);
      char row[512];
      std::snprintf(row, sizeof row,
                    "{\"op\": \"allreduce\", \"ranks\": 8, \"bytes\": %zu, "
                    "\"mode\": \"%s\", \"simd\": \"%s\", \"wall_us\": %.2f}",
                    static_cast<std::size_t>(256 * KiB), path, kn, wall_us);
      rows.emplace_back(row);
    }
  }

  // Allreduce over private heap operands, the buffers perfbench and most
  // callers pass (every row above reduces arena-resident buffers).
  std::printf("# Allreduce — heap operands, shm arena\n");
  for (std::size_t bytes : {64 * KiB, 1 * MiB}) {
    double wall_us = real_coll_us(coll::Mode::kShm, "allreduce", 4, bytes,
                                  iters, samples, {}, true);
    std::printf("%-9s %5d %9zu %5s %12.1f %12s\n", "allreduce", 4, bytes,
                "shm", wall_us, "heap");
    char row[512];
    std::snprintf(row, sizeof row,
                  "{\"op\": \"allreduce\", \"ranks\": 4, \"bytes\": %zu, "
                  "\"mode\": \"shm\", \"buffers\": \"heap\", "
                  "\"wall_us\": %.2f}",
                  bytes, wall_us);
    rows.emplace_back(row);
  }

  // Cell-sized collectives: allreduce and allgather of 8 B and 56 B (the
  // whole cell payload) per rank, heap operands. Auto mode takes the
  // one-line cell exchange; forced p2p is the oracle family it replaces.
  // No committed baseline, so the gate does not compare these rows.
  std::printf("# Cell exchange — 8 B and 56 B, auto (cells) vs p2p\n");
  int cell_iters = smoke ? 200 : 1000;
  for (const char* op : {"allreduce", "allgather"}) {
    for (int nranks : {2, 4, 8}) {
      for (std::size_t bytes : {std::size_t{8}, std::size_t{56}}) {
        for (coll::Mode mode : {coll::Mode::kAuto, coll::Mode::kP2p}) {
          double wall_us = real_coll_us(mode, op, nranks, bytes, cell_iters,
                                        samples, {}, true);
          const char* path = coll::to_string(mode);
          std::printf("%-9s %5d %9zu %5s %12.2f %12s\n", op, nranks, bytes,
                      path, wall_us, "heap");
          char row[512];
          std::snprintf(row, sizeof row,
                        "{\"op\": \"%s\", \"ranks\": %d, \"bytes\": %zu, "
                        "\"mode\": \"%s\", \"buffers\": \"heap\", "
                        "\"wall_us\": %.3f}",
                        op, nranks, bytes, path, wall_us);
          rows.emplace_back(row);
        }
      }
    }
  }

  // The family crossover with fresh operands, in both launch modes: the
  // rows behind tune::coll_activation_for. Full sweep only; no committed
  // baseline, so the gate does not compare these rows.
  if (!smoke) {
    std::printf("# Crossover — fresh heap operands, slowest rank per op\n");
    int fresh_ops = 1000;
    for (const char* world : {"threads", "procs"}) {
      for (const char* op : {"bcast", "allgather", "alltoall", "allreduce"}) {
        for (int nranks : {2, 4}) {
          for (std::size_t bytes :
               {1 * KiB, 2 * KiB, 4 * KiB, 8 * KiB, 16 * KiB}) {
            for (coll::Mode mode : {coll::Mode::kP2p, coll::Mode::kShm}) {
              double wall_us =
                  fresh_coll_us(mode, op, world, nranks, bytes, fresh_ops);
              const char* path = coll::to_string(mode);
              std::printf("%-9s %5d %9zu %5s %12.2f %12s\n", op, nranks,
                          bytes, path, wall_us, world);
              char row[512];
              std::snprintf(row, sizeof row,
                            "{\"op\": \"%s\", \"ranks\": %d, \"bytes\": %zu, "
                            "\"mode\": \"%s\", \"world\": \"%s\", "
                            "\"operands\": \"fresh\", \"wall_us\": %.3f}",
                            op, nranks, bytes, path, world, wall_us);
              rows.emplace_back(row);
            }
          }
        }
      }
    }
  }

  // Strided alltoall: derived-datatype payload as segment lists over the
  // pt2pt engine, the only family strided ops take.
  std::printf("# Strided alltoall — segment-list p2p\n");
  std::vector<std::size_t> strided_sizes =
      smoke ? std::vector<std::size_t>{16 * KiB, 32 * KiB}
            : std::vector<std::size_t>{4 * KiB, 8 * KiB, 16 * KiB, 32 * KiB};
  for (int nranks : rank_counts) {
    for (std::size_t bytes : strided_sizes) {
      double wall_us = real_strided_us(nranks, bytes, iters, samples);
      std::printf("%-9s %5d %9zu %5s %12.1f\n", "a2a_strd", nranks, bytes,
                  "p2p", wall_us);
      char row[512];
      std::snprintf(
          row, sizeof row,
          "{\"op\": \"alltoall_strided\", \"ranks\": %d, \"bytes\": %zu, "
          "\"mode\": \"p2p\", \"wall_us\": %.2f}",
          nranks, bytes, wall_us);
      rows.emplace_back(row);
    }
  }

  // Barrier microbench: the arena barrier per rank count. `bytes` is 0 (a
  // barrier moves no payload).
  std::printf("# Barrier — arena all-read-all arrival\n");
  int bar_iters = smoke ? 50 : 200;
  for (int nranks : rank_counts) {
    double wall_us = real_barrier_us(nranks, bar_iters, samples);
    std::printf("%-9s %5d %9d %5s %12.2f\n", "barrier", nranks, 0, "flat",
                wall_us);
    char row[512];
    std::snprintf(row, sizeof row,
                  "{\"op\": \"barrier\", \"ranks\": %d, \"bytes\": 0, "
                  "\"mode\": \"flat\", \"wall_us\": %.3f}",
                  nranks, wall_us);
    rows.emplace_back(row);
  }

  // Trace-overhead budget rows: the 8-rank 256 KiB shm allreduce with
  // NEMO_TRACE pinned off vs rings. check_bench_regression --diff groups
  // rows differing only in "trace" and prints the percentage against the
  // <1% (off) / <5% (rings) budget; test_trace_overhead enforces it.
  std::printf("# Trace overhead — allreduce 8x256KiB shm, off vs rings\n");
  for (const char* tmode : {"off", "rings"}) {
    double wall_us = real_coll_us(coll::Mode::kShm, "allreduce", 8, 256 * KiB,
                                  iters, samples, {{"NEMO_TRACE", tmode}});
    // Back to the ambient / --trace mode.
    trace::set_mode(core::resolve_config(pinned_config()).trace);
    std::printf("%-9s %5d %9zu %5s %12.1f\n", "allreduce", 8,
                static_cast<std::size_t>(256 * KiB), tmode, wall_us);
    char row[512];
    std::snprintf(row, sizeof row,
                  "{\"op\": \"allreduce\", \"ranks\": 8, \"bytes\": %zu, "
                  "\"mode\": \"shm\", \"trace\": \"%s\", \"wall_us\": %.2f}",
                  static_cast<std::size_t>(256 * KiB), tmode, wall_us);
    rows.emplace_back(row);
  }

  // Liveness-overhead budget rows: the same allreduce with the bounded-wait
  // guards armed (default timeout) vs NEMO_PEER_TIMEOUT_MS=off (the
  // pre-resilience unbounded spins). The guard rides only the every-64-spins
  // slow path, so check_bench_regression --diff's "liveness" grouping must
  // show the armed row within 2% of off.
  std::printf("# Liveness overhead — allreduce 8x256KiB shm, on vs off\n");
  for (const char* lmode : {"on", "off"}) {
    const char* timeout = std::strcmp(lmode, "on") == 0 ? "30000" : "off";
    double wall_us =
        real_coll_us(coll::Mode::kShm, "allreduce", 8, 256 * KiB, iters,
                     samples, {{"NEMO_PEER_TIMEOUT_MS", timeout}});
    std::printf("%-9s %5d %9zu %5s %12.1f\n", "allreduce", 8,
                static_cast<std::size_t>(256 * KiB), lmode, wall_us);
    char row[512];
    std::snprintf(
        row, sizeof row,
        "{\"op\": \"allreduce\", \"ranks\": 8, \"bytes\": %zu, "
        "\"mode\": \"shm\", \"liveness\": \"%s\", \"wall_us\": %.2f}",
        static_cast<std::size_t>(256 * KiB), lmode, wall_us);
    rows.emplace_back(row);
  }

  std::string json = opt.get("json", "");
  if (!json.empty() && !write_json_rows(json, "coll_sweep", rows)) return 1;
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
