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
    : machine_(std::move(machine)), opt_(opt), mem_(machine_) {}

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
  double sender_busy = 0, recv_busy = 0, cache_ns = 0, mem_ns = 0;
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
    sender_busy += ts.total() + chunk_sync / 2;
    recv_busy += tr.total() + chunk_sync / 2;
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
  out.sender_busy_ns = sender_busy;
  out.recv_busy_ns = recv_busy;
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
  double sender_busy = 0, recv_busy = 0, cache_ns = 0, mem_ns = 0;
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
    sender_busy += ts_fixed + ts.total();
    recv_busy += tr_fixed + tr.total();
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
  out.sender_busy_ns = sender_busy;
  out.recv_busy_ns = recv_busy;
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
  out.sender_busy_ns += t.knem_cmd_ns + pin_send + t.handshake_ns;

  if (!dma) {
    Cost c = mem_.copy(rc, dst, src, n);
    double copy_ns = c.total();
    if (async) {
      // Kernel thread competes with the polling receiver process for the
      // same core (§3.4, Fig. 6): the effective copy rate drops.
      copy_ns *= t.kthread_competition;
      c.cache_ns *= t.kthread_competition;
      c.mem_ns *= t.kthread_competition;
    }
    out.cache_ns = c.cache_ns;
    out.mem_ns = c.mem_ns;
    out.recv_busy_ns += t.knem_cmd_ns + copy_ns;  // Core is busy either way.
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
  out.recv_busy_ns += t.knem_cmd_ns + pin_recv + submit;
  if (async) {
    // Submission overlaps the engine; completion is the in-order trailing
    // status write, polled from user space.
    out.fixed_ns += std::max(submit, 0.0) * 0.25 + t.dma_status_poll_ns;
    out.mem_ns = c.mem_ns;
  } else {
    // Synchronous: submit fully, then poll until the engine drains.
    out.fixed_ns += submit + t.dma_status_poll_ns;
    out.mem_ns = c.mem_ns;
    out.recv_busy_ns += c.mem_ns;  // The core spins while polling.
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
  double engine_busy = 0, fixed = 0, sender_busy = 0, recv_busy = 0;
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
    sender_busy += ts_fixed;
    recv_busy += submit + t.syscall_ns + t.dma_status_poll_ns;
    off += chunk;
  }
  // Per-window control overlaps the previous window's engine copy.
  out.fixed_ns += std::max(fixed, engine_busy) - engine_busy +
                  t.dma_status_poll_ns;
  out.mem_ns = engine_busy;
  out.sender_busy_ns = sender_busy;
  out.recv_busy_ns = recv_busy;
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

double LmtModels::alltoall_mibs(Strategy s, const std::vector<int>& cores,
                                std::size_t per_pair, int iters) {
  int n = static_cast<int>(cores.size());
  NEMO_ASSERT((n & (n - 1)) == 0 && n >= 2);
  reset();
  // Per-rank send/recv matrices (block (i -> j) at sbuf[i] + j*per_pair).
  std::vector<std::uint64_t> sbuf, rbuf;
  for (int i = 0; i < n; ++i) {
    sbuf.push_back(alloc_.alloc(per_pair * static_cast<std::size_t>(n)));
    rbuf.push_back(alloc_.alloc(per_pair * static_cast<std::size_t>(n)));
  }
  double round_ns = 0;
  for (int it = 0; it < iters; ++it) {
    round_ns = 0;
    for (int k = 1; k < n; ++k) {
      auto pairs = step_pairs(n, k);
      double flows = static_cast<double>(pairs.size()) * 2.0;
      double contention = 1.0 + opt_.contention_per_flow * (flows - 1.0);
      double step_ns = 0;
      for (auto [i, j] : pairs) {
        XferOutcome a = transfer(
            s, cores[static_cast<std::size_t>(i)],
            cores[static_cast<std::size_t>(j)],
            sbuf[static_cast<std::size_t>(i)] +
                static_cast<std::uint64_t>(j) * per_pair,
            rbuf[static_cast<std::size_t>(j)] +
                static_cast<std::uint64_t>(i) * per_pair,
            per_pair);
        XferOutcome b = transfer(
            s, cores[static_cast<std::size_t>(j)],
            cores[static_cast<std::size_t>(i)],
            sbuf[static_cast<std::size_t>(j)] +
                static_cast<std::uint64_t>(i) * per_pair,
            rbuf[static_cast<std::size_t>(i)] +
                static_cast<std::uint64_t>(j) * per_pair,
            per_pair);
        double pair_ns = std::max(
            a.fixed_ns + a.cache_ns + a.mem_ns * contention,
            b.fixed_ns + b.cache_ns + b.mem_ns * contention);
        step_ns = std::max(step_ns, pair_ns);
      }
      round_ns += step_ns;
    }
  }
  // IMB reports aggregate bytes moved per round: n ranks each send (n-1)
  // blocks.
  double bytes = static_cast<double>(n) * static_cast<double>(n - 1) *
                 static_cast<double>(per_pair);
  return (bytes / (1024.0 * 1024.0)) / (round_ns * 1e-9);
}

std::uint64_t LmtModels::alltoall_l2_misses(Strategy s,
                                            const std::vector<int>& cores,
                                            std::size_t per_pair, int iters) {
  int n = static_cast<int>(cores.size());
  NEMO_ASSERT((n & (n - 1)) == 0 && n >= 2);
  reset();
  std::vector<std::uint64_t> sbuf, rbuf;
  for (int i = 0; i < n; ++i) {
    sbuf.push_back(alloc_.alloc(per_pair * static_cast<std::size_t>(n)));
    rbuf.push_back(alloc_.alloc(per_pair * static_cast<std::size_t>(n)));
  }
  auto one_round = [&] {
    for (int k = 1; k < n; ++k)
      for (auto [i, j] : step_pairs(n, k)) {
        transfer(s, cores[static_cast<std::size_t>(i)],
                 cores[static_cast<std::size_t>(j)],
                 sbuf[static_cast<std::size_t>(i)] +
                     static_cast<std::uint64_t>(j) * per_pair,
                 rbuf[static_cast<std::size_t>(j)] +
                     static_cast<std::uint64_t>(i) * per_pair,
                 per_pair);
        transfer(s, cores[static_cast<std::size_t>(j)],
                 cores[static_cast<std::size_t>(i)],
                 sbuf[static_cast<std::size_t>(j)] +
                     static_cast<std::uint64_t>(i) * per_pair,
                 rbuf[static_cast<std::size_t>(i)] +
                     static_cast<std::uint64_t>(j) * per_pair,
                 per_pair);
      }
  };
  one_round();  // Warm-up.
  mem_.caches().reset_stats();
  for (int it = 0; it < iters; ++it) one_round();
  return mem_.caches().l2_misses() / static_cast<std::uint64_t>(iters);
}

// --- Collective replay accounting (fig7 / coll_sweep) -----------------------

LmtModels::CollOutcome LmtModels::bcast_coll(bool shm,
                                             const std::vector<int>& cores,
                                             std::size_t bytes, int iters) {
  int n = static_cast<int>(cores.size());
  NEMO_ASSERT(n >= 2);
  reset();
  std::vector<std::uint64_t> buf;
  for (int i = 0; i < n; ++i) buf.push_back(alloc_.alloc(bytes));
  std::uint64_t slot = alloc_.alloc(bytes);  // Arena staging region.

  CollOutcome out;
  double round_ns = 0;
  auto one_round = [&](bool count_copies) {
    round_ns = 0;
    if (!shm) {
      // Binomial tree from rank 0: at step k, ranks below 2^k forward to
      // rank + 2^k. Each hop re-copies the full payload through the pair's
      // ring (2 copies); hops within a step run concurrently.
      for (int k = 1; k < n; k <<= 1) {
        double step_ns = 0;
        std::size_t flows = 0;
        for (int src = 0; src + k < n && src < k; ++src) ++flows;
        double contention =
            1.0 + opt_.contention_per_flow *
                      (static_cast<double>(flows > 0 ? flows : 1) - 1.0);
        for (int src = 0; src < k && src + k < n; ++src) {
          int dst = src + k;
          XferOutcome x = transfer(Strategy::kDefault,
                                   cores[static_cast<std::size_t>(src)],
                                   cores[static_cast<std::size_t>(dst)],
                                   buf[static_cast<std::size_t>(src)],
                                   buf[static_cast<std::size_t>(dst)], bytes);
          step_ns = std::max(step_ns,
                             x.fixed_ns + x.cache_ns + x.mem_ns * contention);
          if (count_copies) out.copy_bytes += 2 * bytes;
        }
        round_ns += step_ns;
      }
      return;
    }
    // Arena path: the root streams once into the slotted arena (NT past the
    // tuned threshold), then every reader pulls concurrently. The doorbell
    // pipelining is approximated by overlapping nothing — conservative.
    Cost w = mem_.copy(cores[0], slot, buf[0], bytes,
                       bytes >= opt_.nt_min);
    double root_ns = w.total();
    if (count_copies) out.copy_bytes += bytes;
    double contention =
        1.0 + opt_.contention_per_flow * (static_cast<double>(n - 1) - 1.0);
    double read_ns = 0;
    for (int i = 1; i < n; ++i) {
      Cost c = mem_.copy(cores[static_cast<std::size_t>(i)],
                         buf[static_cast<std::size_t>(i)], slot, bytes);
      read_ns = std::max(read_ns, c.cache_ns + c.mem_ns * contention);
      if (count_copies) out.copy_bytes += bytes;
    }
    round_ns = root_ns + read_ns;
  };

  one_round(true);  // Warm-up (and count one round's copy volume).
  mem_.caches().reset_stats();
  for (int it = 0; it < iters; ++it) one_round(false);
  out.l2_misses =
      mem_.caches().l2_misses() / static_cast<std::uint64_t>(iters);
  out.mibs = round_ns > 0 ? (static_cast<double>(bytes) / (1024.0 * 1024.0)) /
                                (round_ns * 1e-9)
                          : 0;
  return out;
}

LmtModels::CollOutcome LmtModels::allreduce_coll(bool shm,
                                                 const std::vector<int>& cores,
                                                 std::size_t bytes, int iters,
                                                 std::size_t slot_bytes) {
  int n = static_cast<int>(cores.size());
  NEMO_ASSERT(n >= 2);
  reset();
  std::vector<std::uint64_t> in, out;
  for (int i = 0; i < n; ++i) {
    in.push_back(alloc_.alloc(bytes));
    out.push_back(alloc_.alloc(bytes));
  }
  std::uint64_t slot = alloc_.alloc(slot_bytes);  // Leader staging region.

  CollOutcome out_c;
  // Per-operand combine cost on the folding core: the memory-system part is
  // charged by the copy/touch models below; this is the ALU chain, divided
  // by the fold kernel's lane width (Options::fold_lanes).
  double alu_ns = opt_.fold_ns_per_byte * static_cast<double>(bytes) /
                  std::max(1.0, opt_.fold_lanes);
  double round_ns = 0;
  auto one_round = [&](bool count_copies) {
    round_ns = 0;
    if (!shm) {
      // Linear gather-fold at rank 0 (each operand crosses the pair ring:
      // 2 copies) followed by a binomial result bcast.
      double gather_ns = 0;
      for (int w = 1; w < n; ++w) {
        XferOutcome x =
            transfer(Strategy::kDefault, cores[static_cast<std::size_t>(w)],
                     cores[0], in[static_cast<std::size_t>(w)],
                     out[0], bytes);
        Cost fold = mem_.touch(cores[0], out[0], bytes);
        gather_ns += x.fixed_ns + x.cache_ns + x.mem_ns + fold.total() +
                     alu_ns;
        if (count_copies) out_c.copy_bytes += 2 * bytes;
      }
      double bcast_ns = 0;
      for (int k = 1; k < n; k <<= 1) {
        double step_ns = 0;
        for (int src = 0; src < k && src + k < n; ++src) {
          int dst = src + k;
          XferOutcome x = transfer(Strategy::kDefault,
                                   cores[static_cast<std::size_t>(src)],
                                   cores[static_cast<std::size_t>(dst)],
                                   out[static_cast<std::size_t>(src)],
                                   out[static_cast<std::size_t>(dst)], bytes);
          step_ns = std::max(step_ns, x.total());
          if (count_copies) out_c.copy_bytes += 2 * bytes;
        }
        bcast_ns += step_ns;
      }
      round_ns = gather_ns + bcast_ns;
      return;
    }
    // Arena v2 pipelined fold: writers deposit sub-chunks concurrently
    // (contended), the leader combines every operand in ascending rank
    // order, readers stream the folded chunks out behind the fold. Deposit,
    // fold, and read-back overlap chunk-wise, so the round costs
    // max(deposit, fold, read) plus one sub-chunk of fill latency at each
    // pipeline boundary — not their sum (PR 4's serialized-fold model).
    std::size_t sub = std::max<std::size_t>(slot_bytes / 4, 64);
    double contention =
        1.0 + opt_.contention_per_flow * (static_cast<double>(n - 1) - 1.0);
    double deposit_ns = 0;
    for (int w = 1; w < n; ++w) {
      Cost c = mem_.copy(cores[static_cast<std::size_t>(w)], slot,
                         in[static_cast<std::size_t>(w)], bytes);
      deposit_ns = std::max(deposit_ns, c.cache_ns + c.mem_ns * contention);
      if (count_copies) out_c.copy_bytes += bytes;
    }
    double fold_ns = 0;
    for (int w = 0; w < n; ++w) {
      Cost c = mem_.copy(cores[0], out[0], w == 0 ? in[0] : slot, bytes);
      // w == 0 seeds out with the leader's operand (pure copy, no combine).
      fold_ns += c.total() + (w == 0 ? 0.0 : alu_ns);
    }
    if (count_copies) out_c.copy_bytes += bytes;  // Leader's result chunks.
    double read_ns = 0;
    for (int i = 1; i < n; ++i) {
      Cost c = mem_.copy(cores[static_cast<std::size_t>(i)],
                         out[static_cast<std::size_t>(i)], slot, bytes);
      read_ns = std::max(read_ns, c.cache_ns + c.mem_ns * contention);
      if (count_copies) out_c.copy_bytes += bytes;
    }
    double chunk_ns =
        (deposit_ns + fold_ns + read_ns) *
        (static_cast<double>(sub) / static_cast<double>(std::max(bytes, sub)));
    round_ns = std::max({deposit_ns, fold_ns, read_ns}) + 2 * chunk_ns;
  };

  one_round(true);
  mem_.caches().reset_stats();
  for (int it = 0; it < iters; ++it) one_round(false);
  out_c.l2_misses =
      mem_.caches().l2_misses() / static_cast<std::uint64_t>(iters);
  out_c.mibs = round_ns > 0
                   ? (static_cast<double>(bytes) / (1024.0 * 1024.0)) /
                         (round_ns * 1e-9)
                   : 0;
  return out_c;
}

double LmtModels::barrier_coll_ns(int nranks) {
  NEMO_ASSERT(nranks >= 1);
  // An arrival flag is one cache line bouncing between a spinner and the
  // publisher: charge one cache-to-cache transfer per polled flag (the
  // line always misses — another core just wrote it).
  double line_ns = machine_.timing.c2c_ns;
  return static_cast<double>(nranks - 1) * line_ns + line_ns;
}

LmtModels::CollOutcome LmtModels::alltoall_coll(bool shm,
                                                const std::vector<int>& cores,
                                                std::size_t per_pair,
                                                int iters) {
  int n = static_cast<int>(cores.size());
  NEMO_ASSERT((n & (n - 1)) == 0 && n >= 2);
  reset();
  std::vector<std::uint64_t> sbuf, rbuf;
  for (int i = 0; i < n; ++i) {
    sbuf.push_back(alloc_.alloc(per_pair * static_cast<std::size_t>(n)));
    rbuf.push_back(alloc_.alloc(per_pair * static_cast<std::size_t>(n)));
  }

  CollOutcome out;
  double round_ns = 0;
  auto one_round = [&](bool count_copies) {
    round_ns = 0;
    if (!shm) {
      // The pairwise exchange over the default ring: 2 copies per block.
      for (int k = 1; k < n; ++k) {
        auto pairs = step_pairs(n, k);
        double flows = static_cast<double>(pairs.size()) * 2.0;
        double contention = 1.0 + opt_.contention_per_flow * (flows - 1.0);
        double step_ns = 0;
        for (auto [i, j] : pairs) {
          XferOutcome a = transfer(
              Strategy::kDefault, cores[static_cast<std::size_t>(i)],
              cores[static_cast<std::size_t>(j)],
              sbuf[static_cast<std::size_t>(i)] +
                  static_cast<std::uint64_t>(j) * per_pair,
              rbuf[static_cast<std::size_t>(j)] +
                  static_cast<std::uint64_t>(i) * per_pair,
              per_pair);
          XferOutcome b = transfer(
              Strategy::kDefault, cores[static_cast<std::size_t>(j)],
              cores[static_cast<std::size_t>(i)],
              sbuf[static_cast<std::size_t>(j)] +
                  static_cast<std::uint64_t>(i) * per_pair,
              rbuf[static_cast<std::size_t>(i)] +
                  static_cast<std::uint64_t>(j) * per_pair,
              per_pair);
          if (count_copies) out.copy_bytes += 4 * per_pair;
          step_ns = std::max(
              step_ns,
              std::max(a.fixed_ns + a.cache_ns + a.mem_ns * contention,
                       b.fixed_ns + b.cache_ns + b.mem_ns * contention));
        }
        round_ns += step_ns;
      }
      return;
    }
    // Arena path, direct-read mode (the benches publish arena-resident send
    // matrices): every reader pulls each block straight from its writer's
    // buffer — one copy per block, half the ring path's volume. All n
    // readers stream concurrently.
    double contention =
        1.0 + opt_.contention_per_flow * (static_cast<double>(n) - 1.0);
    for (int j = 0; j < n; ++j) {
      double reader_ns = 0;
      for (int i = 0; i < n; ++i) {
        if (i == j) continue;
        Cost c = mem_.copy(cores[static_cast<std::size_t>(j)],
                           rbuf[static_cast<std::size_t>(j)] +
                               static_cast<std::uint64_t>(i) * per_pair,
                           sbuf[static_cast<std::size_t>(i)] +
                               static_cast<std::uint64_t>(j) * per_pair,
                           per_pair);
        reader_ns += c.cache_ns + c.mem_ns * contention;
        if (count_copies) out.copy_bytes += per_pair;
      }
      round_ns = std::max(round_ns, reader_ns);
    }
  };

  one_round(true);
  mem_.caches().reset_stats();
  for (int it = 0; it < iters; ++it) one_round(false);
  out.l2_misses =
      mem_.caches().l2_misses() / static_cast<std::uint64_t>(iters);
  double bytes = static_cast<double>(n) * static_cast<double>(n - 1) *
                 static_cast<double>(per_pair);
  out.mibs =
      round_ns > 0 ? (bytes / (1024.0 * 1024.0)) / (round_ns * 1e-9) : 0;
  return out;
}

LmtModels::IsOutcome LmtModels::is_run(Strategy s,
                                       const std::vector<int>& cores,
                                       std::size_t total_keys, int iters) {
  int n = static_cast<int>(cores.size());
  NEMO_ASSERT((n & (n - 1)) == 0 && n >= 2);
  reset();
  std::size_t keys_per_rank = total_keys / static_cast<std::size_t>(n);
  std::size_t local_bytes = keys_per_rank * 4;
  std::size_t per_pair = local_bytes / static_cast<std::size_t>(n);

  std::vector<std::uint64_t> keys, sbuf, rbuf;
  for (int i = 0; i < n; ++i) {
    keys.push_back(alloc_.alloc(local_bytes));
    sbuf.push_back(alloc_.alloc(local_bytes));
    rbuf.push_back(alloc_.alloc(local_bytes));
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
                    sbuf[static_cast<std::size_t>(i)],
                    keys[static_cast<std::size_t>(i)], local_bytes);
      local_ns = std::max(local_ns, c1.total() + c2.total());
    }
    // Key exchange: alltoallv of roughly equal buckets.
    double comm_ns = 0;
    for (int k = 1; k < n; ++k) {
      auto pairs = step_pairs(n, k);
      double flows = static_cast<double>(pairs.size()) * 2.0;
      double contention = 1.0 + opt_.contention_per_flow * (flows - 1.0);
      double step_ns = 0;
      for (auto [i, j] : pairs) {
        XferOutcome a = transfer(
            s, cores[static_cast<std::size_t>(i)],
            cores[static_cast<std::size_t>(j)],
            sbuf[static_cast<std::size_t>(i)] +
                static_cast<std::uint64_t>(j) * per_pair,
            rbuf[static_cast<std::size_t>(j)] +
                static_cast<std::uint64_t>(i) * per_pair,
            per_pair);
        XferOutcome b = transfer(
            s, cores[static_cast<std::size_t>(j)],
            cores[static_cast<std::size_t>(i)],
            sbuf[static_cast<std::size_t>(j)] +
                static_cast<std::uint64_t>(i) * per_pair,
            rbuf[static_cast<std::size_t>(i)] +
                static_cast<std::uint64_t>(j) * per_pair,
            per_pair);
        double pair_ns =
            std::max(a.fixed_ns + a.cache_ns + a.mem_ns * contention,
                     b.fixed_ns + b.cache_ns + b.mem_ns * contention);
        step_ns = std::max(step_ns, pair_ns);
      }
      comm_ns += step_ns;
    }
    // Final local ranking over received keys.
    double rank_ns = 0;
    for (int i = 0; i < n; ++i) {
      Cost c = mem_.touch(cores[static_cast<std::size_t>(i)],
                          rbuf[static_cast<std::size_t>(i)], local_bytes);
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
