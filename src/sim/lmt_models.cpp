#include "sim/lmt_models.hpp"

#include <algorithm>

namespace nemo::sim {

namespace {
constexpr std::size_t kPage = 4096;

double pages_of(std::size_t n) {
  return static_cast<double>((n + kPage - 1) / kPage);
}
}  // namespace

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::kDefault: return "default";
    case Strategy::kDefaultNt: return "default-nt";
    case Strategy::kVmsplice: return "vmsplice";
    case Strategy::kVmspliceWritev: return "vmsplice-writev";
    case Strategy::kKnem: return "knem";
    case Strategy::kKnemDma: return "knem+ioat";
    case Strategy::kKnemAsyncCopy: return "knem-async-copy";
    case Strategy::kKnemAsyncDma: return "knem-async-ioat";
    case Strategy::kVmspliceIoat: return "vmsplice+ioat";
  }
  return "?";
}

LmtModels::LmtModels(SimMachine machine, Options opt)
    : opt_(opt), mem_(std::move(machine)) {}

LmtModels::PairBufs& LmtModels::pair_bufs(int a, int b) {
  auto key = std::make_pair(a, b);
  auto it = pair_bufs_.find(key);
  if (it != pair_bufs_.end()) return it->second;
  PairBufs pb;
  pb.ring = alloc_.alloc(static_cast<std::size_t>(opt_.ring_bufs) *
                         opt_.ring_buf_bytes);
  pb.pipebuf = alloc_.alloc(opt_.pipe_window);
  return pair_bufs_.emplace(key, pb).first->second;
}

void LmtModels::reset() {
  mem_.caches().flush_all();
}

// --- Default double-buffered LMT ---------------------------------------------

XferOutcome LmtModels::default_shm(int sc, int rc, std::uint64_t src,
                                   std::uint64_t dst, std::size_t n,
                                   PairBufs& pb, bool nt) {
  const TimingParams& t = mem_.timing();
  bool shared =
      mem_.machine().topo.shared_cache(sc, rc).has_value();
  double chunk_sync =
      shared ? t.ring_sync_shared_ns : t.ring_sync_cross_ns;
  XferOutcome out;
  out.fixed_ns += 2 * t.handshake_ns;  // RTS + CTS.

  // Pipelined chunk schedule over ring_bufs buffers:
  //   S_i = max(S_{i-1}, R_{i-bufs}) + ts_i   (buffer reuse gate)
  //   R_i = max(S_i, R_{i-1}) + tr_i
  std::vector<double> S, R;
  std::size_t off = 0;
  std::size_t i = 0;
  double cache_ns = 0, mem_ns = 0;
  while (off < n) {
    std::size_t chunk = std::min(opt_.ring_buf_bytes, n - off);
    std::uint64_t slot =
        pb.ring + (i % opt_.ring_bufs) * opt_.ring_buf_bytes;
    // Copy #1 streams into the slot only on non-shared pairs (a cached
    // slot write is what makes the receiver's slot read hit a shared L2);
    // copy #2's destination streams whenever the NT path is on.
    Cost ts = mem_.copy(sc, slot, src + off, chunk, nt && !shared);
    Cost tr = mem_.copy(rc, dst + off, slot, chunk, nt);
    double prevS = i > 0 ? S[i - 1] : 0;
    double reuse = i >= opt_.ring_bufs ? R[i - opt_.ring_bufs] : 0;
    double s_done = std::max(prevS, reuse) + ts.total() + chunk_sync / 2;
    double prevR = i > 0 ? R[i - 1] : 0;
    double r_done = std::max(s_done, prevR) + tr.total() + chunk_sync / 2;
    S.push_back(s_done);
    R.push_back(r_done);
    cache_ns += ts.cache_ns + tr.cache_ns;
    mem_ns += ts.mem_ns + tr.mem_ns;
    off += chunk;
    ++i;
  }
  // Both copies stream concurrently but share one memory bus: the pipeline
  // can only overlap the cache-served portions. Data time is the pipelined
  // schedule or the serialized memory traffic, whichever dominates.
  double sched_ns = R.empty() ? 0 : R.back();
  double data_ns = std::max(sched_ns, mem_ns);
  double raw = cache_ns + mem_ns;
  double scale = raw > 0 ? std::min(1.0, data_ns / raw) : 0;
  out.cache_ns = cache_ns * scale;
  out.mem_ns = mem_ns * scale;
  out.fixed_ns += data_ns - (out.cache_ns + out.mem_ns);
  return out;
}

// --- vmsplice / writev LMT ---------------------------------------------------

XferOutcome LmtModels::vmsplice(int sc, int rc, std::uint64_t src,
                                std::uint64_t dst, std::size_t n,
                                PairBufs& pb, bool writev) {
  const TimingParams& t = mem_.timing();
  bool shared =
      mem_.machine().topo.shared_cache(sc, rc).has_value();
  double window_sync =
      shared ? t.pipe_sync_shared_ns : t.pipe_sync_cross_ns;
  XferOutcome out;
  out.fixed_ns += 2 * t.handshake_ns + t.vfs_setup_ns;  // RTS + CTS + VFS.
  if (!writev) out.fixed_ns += t.handshake_ns;          // FIN (page reuse).

  std::vector<double> S, R;
  std::size_t off = 0, i = 0;
  double cache_ns = 0, mem_ns = 0;
  while (off < n) {
    std::size_t chunk = std::min(opt_.pipe_window, n - off);
    double ts_fixed = t.syscall_ns + t.pipe_op_ns;
    Cost ts{};  // Data cost on the sender.
    if (writev) {
      // Copy #1 into the kernel's pipe buffer.
      ts = mem_.copy(sc, pb.pipebuf, src + off, chunk);
    } else {
      // Page attach only: no data touched.
      ts_fixed += t.vmsplice_page_ns * pages_of(chunk);
    }
    double tr_fixed = t.syscall_ns + t.pipe_op_ns + window_sync;
    // Receiver copy: from the source pages (vmsplice) or pipe buffer.
    Cost tr = writev ? mem_.copy(rc, dst + off, pb.pipebuf, chunk)
                     : mem_.copy(rc, dst + off, src + off, chunk);

    double prevS = i > 0 ? S[i - 1] : 0;
    double reuse = i >= 1 ? R[i - 1] : 0;  // One pipe window in flight.
    double s_done = std::max(prevS, reuse) + ts_fixed + ts.total();
    double prevR = i > 0 ? R[i - 1] : 0;
    double r_done = std::max(s_done, prevR) + tr_fixed + tr.total();
    S.push_back(s_done);
    R.push_back(r_done);
    cache_ns += ts.cache_ns + tr.cache_ns;
    mem_ns += ts.mem_ns + tr.mem_ns;
    off += chunk;
    ++i;
  }
  // writev's two concurrent copies share the memory bus like the default
  // LMT; vmsplice has a single data-touching side so the schedule stands.
  double sched_ns = R.empty() ? 0 : R.back();
  double data_ns = writev ? std::max(sched_ns, mem_ns) : sched_ns;
  double raw = cache_ns + mem_ns;
  // Fixed syscall costs are embedded in the schedule; fold the difference
  // between schedule time and pure copy time into fixed_ns.
  double copy_part = std::min(raw, data_ns);
  double scale = raw > 0 ? copy_part / raw : 0;
  out.cache_ns = cache_ns * scale;
  out.mem_ns = mem_ns * scale;
  out.fixed_ns += data_ns - copy_part;
  return out;
}

// --- KNEM LMT ------------------------------------------------------------------

XferOutcome LmtModels::knem(int /*sc*/, int rc, std::uint64_t src,
                            std::uint64_t dst, std::size_t n, bool dma,
                            bool async) {
  const TimingParams& t = mem_.timing();
  XferOutcome out;
  // RTS + FIN (no CTS), one send command, one receive command.
  out.fixed_ns += 2 * t.handshake_ns + 2 * t.knem_cmd_ns;
  // Send command pins the sender buffer (always, §3.3).
  double pin_send = t.pin_page_ns * pages_of(n);
  out.fixed_ns += pin_send;

  if (!dma) {
    Cost c = mem_.copy(rc, dst, src, n);
    if (async) {
      // Kernel thread competes with the polling receiver process for the
      // same core (§3.4, Fig. 6): the effective copy rate drops.
      c.cache_ns *= t.kthread_competition;
      c.mem_ns *= t.kthread_competition;
    }
    out.cache_ns = c.cache_ns;
    out.mem_ns = c.mem_ns;
    return out;
  }

  // I/OAT path: pin the receive buffer too, submit one descriptor per
  // physically-contiguous chunk (page), engine copies in the background
  // without touching any cache.
  double pin_recv = t.pin_page_ns * pages_of(n);
  double submit =
      t.dma_submit_ns * pages_of(n) / t.dma_pages_per_doorbell;
  Cost c = mem_.dma_copy(dst, src, n);
  out.fixed_ns += pin_recv;
  out.mem_ns = c.mem_ns;
  if (async) {
    // Submission overlaps the engine; completion is the in-order trailing
    // status write, polled from user space.
    out.fixed_ns += std::max(submit, 0.0) * 0.25 + t.dma_status_poll_ns;
  } else {
    // Synchronous: submit fully, then poll until the engine drains.
    out.fixed_ns += submit + t.dma_status_poll_ns;
  }
  return out;
}

// §6 future work: "integrating I/OAT offloading into vmsplice-based
// transfers". The sender still attaches pages window by window; the
// receiver, instead of copying with readv, submits each drained window to
// the DMA engine. Keeps vmsplice's ubiquity-era flow control (64 KiB
// windows, VFS costs) while gaining I/OAT's zero-pollution copy.
XferOutcome LmtModels::vmsplice_ioat(int /*sc*/, int /*rc*/,
                                     std::uint64_t src,
                                     std::uint64_t dst, std::size_t n) {
  const TimingParams& t = mem_.timing();
  XferOutcome out;
  out.fixed_ns += 3 * t.handshake_ns + t.vfs_setup_ns;  // RTS/CTS/FIN + VFS.
  std::size_t off = 0;
  double engine_busy = 0, fixed = 0;
  while (off < n) {
    std::size_t chunk = std::min(opt_.pipe_window, n - off);
    double ts_fixed = t.syscall_ns + t.pipe_op_ns +
                      t.vmsplice_page_ns * pages_of(chunk);
    double submit =
        t.dma_submit_ns * pages_of(chunk) / t.dma_pages_per_doorbell;
    Cost c = mem_.dma_copy(dst + off, src + off, chunk);
    // Sender attach and receiver submission overlap with the engine; the
    // engine itself is the bottleneck for the payload.
    fixed += std::max(ts_fixed, submit + t.syscall_ns);
    engine_busy += c.mem_ns;
    off += chunk;
  }
  // Per-window control overlaps the previous window's engine copy.
  out.fixed_ns += std::max(fixed, engine_busy) - engine_busy +
                  t.dma_status_poll_ns;
  out.mem_ns = engine_busy;
  return out;
}

XferOutcome LmtModels::transfer(Strategy s, int sender_core, int recv_core,
                                std::uint64_t src, std::uint64_t dst,
                                std::size_t bytes) {
  PairBufs& pb = pair_bufs(sender_core, recv_core);
  switch (s) {
    case Strategy::kDefault:
      return default_shm(sender_core, recv_core, src, dst, bytes, pb, false);
    case Strategy::kDefaultNt:
      return default_shm(sender_core, recv_core, src, dst, bytes, pb,
                         bytes >= opt_.nt_min);
    case Strategy::kVmsplice:
      return vmsplice(sender_core, recv_core, src, dst, bytes, pb, false);
    case Strategy::kVmspliceWritev:
      return vmsplice(sender_core, recv_core, src, dst, bytes, pb, true);
    case Strategy::kKnem:
      return knem(sender_core, recv_core, src, dst, bytes, false, false);
    case Strategy::kKnemDma:
      return knem(sender_core, recv_core, src, dst, bytes, true, false);
    case Strategy::kKnemAsyncCopy:
      return knem(sender_core, recv_core, src, dst, bytes, false, true);
    case Strategy::kKnemAsyncDma:
      return knem(sender_core, recv_core, src, dst, bytes, true, true);
    case Strategy::kVmspliceIoat:
      return vmsplice_ioat(sender_core, recv_core, src, dst, bytes);
  }
  NEMO_ASSERT(false);
  return {};
}

double LmtModels::pingpong_mibs(Strategy s, int core_a, int core_b,
                                std::size_t bytes, int iters) {
  reset();
  std::uint64_t buf_a = alloc_.alloc(bytes);
  std::uint64_t buf_b = alloc_.alloc(bytes);
  double last_oneway = 0;
  for (int i = 0; i < iters; ++i) {
    XferOutcome ab = transfer(s, core_a, core_b, buf_a, buf_b, bytes);
    XferOutcome ba = transfer(s, core_b, core_a, buf_b, buf_a, bytes);
    last_oneway = (ab.total() + ba.total()) / 2.0;
  }
  if (last_oneway <= 0) return 0;
  return (static_cast<double>(bytes) / (1024.0 * 1024.0)) /
         (last_oneway * 1e-9);
}

std::uint64_t LmtModels::pingpong_l2_misses(Strategy s, int core_a,
                                            int core_b, std::size_t bytes,
                                            int iters) {
  reset();
  std::uint64_t buf_a = alloc_.alloc(bytes);
  std::uint64_t buf_b = alloc_.alloc(bytes);
  // Warm caches with one round, then count.
  transfer(s, core_a, core_b, buf_a, buf_b, bytes);
  transfer(s, core_b, core_a, buf_b, buf_a, bytes);
  mem_.caches().reset_stats();
  for (int i = 0; i < iters; ++i) {
    transfer(s, core_a, core_b, buf_a, buf_b, bytes);
    transfer(s, core_b, core_a, buf_b, buf_a, bytes);
  }
  return mem_.caches().l2_misses() / static_cast<std::uint64_t>(iters);
}

namespace {

/// Pairwise-exchange schedule: at step k (1..n-1), rank i exchanges with
/// i^k (n must be a power of two — 8 in the paper's Fig. 7).
std::vector<std::pair<int, int>> step_pairs(int n, int k) {
  std::vector<std::pair<int, int>> out;
  for (int i = 0; i < n; ++i) {
    int j = i ^ k;
    if (i < j) out.emplace_back(i, j);
  }
  return out;
}

}  // namespace

LmtModels::ExchangeBufs LmtModels::alltoall_bufs(int n,
                                                 std::size_t per_pair) {
  ExchangeBufs x;
  x.per_pair = per_pair;
  for (int i = 0; i < n; ++i) {
    x.sbuf.push_back(alloc_.alloc(per_pair * static_cast<std::size_t>(n)));
    x.rbuf.push_back(alloc_.alloc(per_pair * static_cast<std::size_t>(n)));
  }
  return x;
}

double LmtModels::exchange_round(Strategy s, const std::vector<int>& cores,
                                 const ExchangeBufs& x) {
  int n = static_cast<int>(cores.size());
  NEMO_ASSERT((n & (n - 1)) == 0 && n >= 2);
  auto send = [&](int i, int j) {
    auto ui = static_cast<std::size_t>(i);
    auto uj = static_cast<std::size_t>(j);
    return transfer(s, cores[ui], cores[uj],
                    x.sbuf[ui] + static_cast<std::uint64_t>(j) * x.per_pair,
                    x.rbuf[uj] + static_cast<std::uint64_t>(i) * x.per_pair,
                    x.per_pair);
  };
  double round_ns = 0;
  for (int k = 1; k < n; ++k) {
    auto pairs = step_pairs(n, k);
    double flows = static_cast<double>(pairs.size()) * 2.0;
    double contention = 1.0 + opt_.contention_per_flow * (flows - 1.0);
    double step_ns = 0;
    for (auto [i, j] : pairs) {
      XferOutcome a = send(i, j);
      XferOutcome b = send(j, i);
      double pair_ns =
          std::max(a.fixed_ns + a.cache_ns + a.mem_ns * contention,
                   b.fixed_ns + b.cache_ns + b.mem_ns * contention);
      step_ns = std::max(step_ns, pair_ns);
    }
    round_ns += step_ns;
  }
  return round_ns;
}

double LmtModels::alltoall_mibs(Strategy s, const std::vector<int>& cores,
                                std::size_t per_pair, int iters) {
  int n = static_cast<int>(cores.size());
  reset();
  ExchangeBufs x = alltoall_bufs(n, per_pair);
  double round_ns = 0;
  for (int it = 0; it < iters; ++it) round_ns = exchange_round(s, cores, x);
  // IMB reports aggregate bytes moved per round: n ranks each send (n-1)
  // blocks.
  double bytes = static_cast<double>(n) * static_cast<double>(n - 1) *
                 static_cast<double>(per_pair);
  return (bytes / (1024.0 * 1024.0)) / (round_ns * 1e-9);
}

std::uint64_t LmtModels::alltoall_l2_misses(Strategy s,
                                            const std::vector<int>& cores,
                                            std::size_t per_pair, int iters) {
  reset();
  ExchangeBufs x = alltoall_bufs(static_cast<int>(cores.size()), per_pair);
  exchange_round(s, cores, x);  // Warm-up.
  mem_.caches().reset_stats();
  for (int it = 0; it < iters; ++it) exchange_round(s, cores, x);
  return mem_.caches().l2_misses() / static_cast<std::uint64_t>(iters);
}

LmtModels::IsOutcome LmtModels::is_run(Strategy s,
                                       const std::vector<int>& cores,
                                       std::size_t total_keys, int iters) {
  int n = static_cast<int>(cores.size());
  NEMO_ASSERT(n >= 2);
  reset();
  std::size_t keys_per_rank = total_keys / static_cast<std::size_t>(n);
  std::size_t local_bytes = keys_per_rank * 4;

  std::vector<std::uint64_t> keys;
  ExchangeBufs x;
  x.per_pair = local_bytes / static_cast<std::size_t>(n);
  for (int i = 0; i < n; ++i) {
    keys.push_back(alloc_.alloc(local_bytes));
    x.sbuf.push_back(alloc_.alloc(local_bytes));
    x.rbuf.push_back(alloc_.alloc(local_bytes));
  }

  double total_ns = 0;
  for (int it = 0; it < iters; ++it) {
    // Local phase: rank and bucket the keys (read keys, write sendbuf).
    double local_ns = 0;
    for (int i = 0; i < n; ++i) {
      Cost c1 = mem_.touch(cores[static_cast<std::size_t>(i)],
                           keys[static_cast<std::size_t>(i)], local_bytes);
      Cost c2 =
          mem_.copy(cores[static_cast<std::size_t>(i)],
                    x.sbuf[static_cast<std::size_t>(i)],
                    keys[static_cast<std::size_t>(i)], local_bytes);
      local_ns = std::max(local_ns, c1.total() + c2.total());
    }
    // Key exchange: alltoallv of roughly equal buckets.
    double comm_ns = exchange_round(s, cores, x);
    // Final local ranking over received keys.
    double rank_ns = 0;
    for (int i = 0; i < n; ++i) {
      Cost c = mem_.touch(cores[static_cast<std::size_t>(i)],
                          x.rbuf[static_cast<std::size_t>(i)], local_bytes);
      rank_ns = std::max(rank_ns, c.total());
    }
    total_ns += local_ns + comm_ns + rank_ns;
  }
  IsOutcome out;
  out.seconds = total_ns * 1e-9;
  out.l2_misses = mem_.caches().l2_misses();
  return out;
}

}  // namespace nemo::sim
