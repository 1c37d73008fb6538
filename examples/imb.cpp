// IMB-style command-line benchmark tool over the nemolmt public API — the
// utility a downstream user runs first on a new machine.
//
//   build/examples/imb --op=pingpong --lmt=knem --min=4KiB --max=4MiB
//   build/examples/imb --op=alltoall --ranks=8 --lmt=auto
//   build/examples/imb --op=exchange --ranks=4
#include <cstdio>
#include <vector>

#include "common/checksum.hpp"
#include "common/options.hpp"
#include "common/timing.hpp"
#include "core/comm.hpp"
#include "shm/process_runner.hpp"

using namespace nemo;

namespace {

lmt::LmtKind parse_kind(const std::string& s) {
  if (s == "default") return lmt::LmtKind::kDefaultShm;
  if (s == "vmsplice") return lmt::LmtKind::kVmsplice;
  if (s == "writev") return lmt::LmtKind::kVmspliceWritev;
  if (s == "knem") return lmt::LmtKind::kKnem;
  if (s == "cma") return lmt::LmtKind::kCma;
  return lmt::LmtKind::kAuto;
}

lmt::KnemMode parse_mode(const std::string& s) {
  if (s == "sync-copy") return lmt::KnemMode::kSyncCopy;
  if (s == "async-copy") return lmt::KnemMode::kAsyncCopy;
  if (s == "sync-dma") return lmt::KnemMode::kSyncDma;
  if (s == "async-dma") return lmt::KnemMode::kAsyncDma;
  return lmt::KnemMode::kAuto;
}

int iters_for(std::size_t bytes) {
  if (bytes <= 16 * KiB) return 200;
  if (bytes <= 256 * KiB) return 50;
  return 15;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  opt.declare("op", "pingpong|exchange|alltoall (default pingpong)");
  opt.declare("ranks", "ranks (default 2; alltoall default 8)");
  opt.declare("lmt", "default|vmsplice|writev|knem|cma|auto");
  opt.declare("knem-mode", "sync-copy|async-copy|sync-dma|async-dma|auto");
  opt.declare("min", "smallest message (default 1KiB)");
  opt.declare("max", "largest message (default 4MiB)");
  opt.declare("procs", "fork processes instead of threads");
  opt.declare("telemetry", "write per-rank engine counters to this JSON file");
  opt.finalize();

  std::string op = opt.get("op", "pingpong");
  core::Config cfg;
  cfg.nranks =
      static_cast<int>(opt.get_int("ranks", op == "alltoall" ? 8 : 2));
  cfg.lmt = parse_kind(opt.get("lmt", "auto"));
  cfg.knem_mode = parse_mode(opt.get("knem-mode", "auto"));
  cfg.mode = opt.get_flag("procs") ? core::LaunchMode::kProcesses
                                   : core::LaunchMode::kThreads;
  cfg.shared_pool_bytes = 512 * MiB;
  std::size_t min_b = opt.get_size("min", 1 * KiB);
  std::size_t max_b = opt.get_size("max", 4 * MiB);

  int cores = shm::available_cores();
  std::printf("# imb: op=%s ranks=%d lmt=%s knem=%s mode=%s (host cores: %d%s)\n",
              op.c_str(), cfg.nranks, to_string(cfg.lmt),
              to_string(cfg.knem_mode),
              cfg.mode == core::LaunchMode::kProcesses ? "procs" : "threads",
              cores,
              cores < cfg.nranks ? " — OVERSUBSCRIBED, numbers unreliable"
                                 : "");
  std::printf("%12s %12s %12s\n", "bytes", "usec",
              op == "alltoall" ? "agg MiB/s" : "MiB/s");

  // Telemetry aggregation only works for thread mode (forked children
  // cannot write back into the parent's vector).
  std::vector<tune::Counters> telemetry;
  if (opt.has("telemetry")) {
    if (cfg.mode == core::LaunchMode::kThreads)
      telemetry.resize(static_cast<std::size_t>(cfg.nranks));
    else
      std::fprintf(stderr,
                   "imb: --telemetry is ignored with --procs (forked ranks "
                   "cannot report counters back); no file will be written\n");
  }

  bool ok = core::run(cfg, [&](core::Comm& comm) {
    int n = comm.size();
    for (std::size_t sz = min_b; sz <= max_b; sz *= 2) {
      int iters = iters_for(sz);
      double usec = 0, mibs = 0;

      if (op == "alltoall") {
        std::size_t matrix = sz * static_cast<std::size_t>(n);
        std::byte* send = comm.shared_alloc(matrix);
        std::byte* recv = comm.shared_alloc(matrix);
        pattern_fill({send, matrix}, sz);
        comm.alltoall(send, sz, recv);
        comm.hard_barrier();
        Timer t;
        for (int i = 0; i < iters; ++i) comm.alltoall(send, sz, recv);
        double s = t.elapsed_s();
        comm.hard_barrier();
        usec = s * 1e6 / iters;
        double bytes = static_cast<double>(n) * (n - 1) * static_cast<double>(sz);
        mibs = bytes * iters / (1024.0 * 1024.0) / s;
      } else if (op == "exchange") {
        // Every rank exchanges with both neighbours each iteration.
        std::byte* out = comm.shared_alloc(sz);
        std::byte* in = comm.shared_alloc(sz);
        int right = (comm.rank() + 1) % n, left = (comm.rank() - 1 + n) % n;
        comm.hard_barrier();
        Timer t;
        for (int i = 0; i < iters; ++i) {
          core::Request s1 = comm.isend(out, sz, right, 1);
          core::Request r1 = comm.irecv(in, sz, left, 1);
          comm.wait(s1);
          comm.wait(r1);
          core::Request s2 = comm.isend(out, sz, left, 2);
          core::Request r2 = comm.irecv(in, sz, right, 2);
          comm.wait(s2);
          comm.wait(r2);
        }
        double s = t.elapsed_s();
        comm.hard_barrier();
        usec = s * 1e6 / iters;
        mibs = 2.0 * static_cast<double>(sz) * iters / (1024.0 * 1024.0) / s;
      } else {  // pingpong
        std::byte* buf = comm.shared_alloc(sz);
        pattern_fill({buf, sz}, sz);
        int peer = 1 - comm.rank();
        if (comm.rank() <= 1) {
          // Warm-up + timed loop on ranks 0/1; others idle at the barrier.
          for (int i = 0; i < 2; ++i) {
            if (comm.rank() == 0) {
              comm.send(buf, sz, peer, 1);
              comm.recv(buf, sz, peer, 2);
            } else {
              comm.recv(buf, sz, peer, 1);
              comm.send(buf, sz, peer, 2);
            }
          }
        }
        comm.hard_barrier();
        Timer t;
        if (comm.rank() <= 1) {
          for (int i = 0; i < iters; ++i) {
            if (comm.rank() == 0) {
              comm.send(buf, sz, peer, 1);
              comm.recv(buf, sz, peer, 2);
            } else {
              comm.recv(buf, sz, peer, 1);
              comm.send(buf, sz, peer, 2);
            }
          }
        }
        double s = t.elapsed_s();
        comm.hard_barrier();
        usec = s * 1e6 / (2.0 * iters);
        mibs = static_cast<double>(sz) / (1024.0 * 1024.0) / (usec * 1e-6);
      }

      if (comm.rank() == 0)
        std::printf("%12zu %12.2f %12.1f\n", sz, usec, mibs);
    }
    // The KNEM device's statistics live in the arena, shared by every rank.
    knem::DeviceStats st = comm.engine().knem_device().stats();
    if (comm.rank() == 0 && st.recv_cmds != 0)
      std::printf("# knem: %llu receive commands, %llu B copied, %llu B of "
                  "them by the sender\n",
                  static_cast<unsigned long long>(st.recv_cmds),
                  static_cast<unsigned long long>(st.bytes_copied),
                  static_cast<unsigned long long>(st.sender_copied_bytes));
    if (!telemetry.empty()) {
      comm.hard_barrier();
      telemetry[static_cast<std::size_t>(comm.rank())] +=
          comm.engine().counters();
    }
  });
  if (!ok) {
    std::fprintf(stderr, "imb: world failed (a rank exited nonzero)\n");
    return 1;
  }
  if (!telemetry.empty() &&
      !tune::write_telemetry(opt.get("telemetry", ""), "imb-" + op,
                             telemetry.data(), cfg.nranks))
    return 1;
  return 0;
}
