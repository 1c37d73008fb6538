// Per-strategy replay models: each LMT mechanism is executed against the
// cache/memory simulator as the exact sequence of memory accesses, syscalls
// and handshakes it performs on real hardware. These models regenerate the
// paper's figures (3-7) and the cache-miss table (Table 2) deterministically.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sim/memsys.hpp"

namespace nemo::sim {

/// Transfer strategies distinguished in the evaluation.
enum class Strategy {
  kDefault,        ///< Nemesis double-buffered shm copy.
  kDefaultNt,      ///< Same ring, both copies with non-temporal stores
                   ///< (this repo's streaming pipeline above NEMO_NT_MIN).
  kVmsplice,       ///< vmsplice + readv (single copy).
  kVmspliceWritev, ///< writev + readv (two copies through the pipe buffer).
  kKnem,           ///< KNEM synchronous kernel copy (receiver core).
  kKnemDma,        ///< KNEM + I/OAT, synchronous (polled).
  kKnemAsyncCopy,  ///< KNEM kernel-thread offload (competes for the core).
  kKnemAsyncDma,   ///< KNEM + I/OAT, asynchronous (status-byte completion).
  kVmspliceIoat,   ///< §6 future work: vmsplice page attach + I/OAT-offloaded
                   ///< window copies on the receive side (modelled only).
};

const char* to_string(Strategy s);

/// Breakdown of one message transfer.
struct XferOutcome {
  double fixed_ns = 0;   ///< Handshakes, syscalls, pinning, submissions.
  double cache_ns = 0;   ///< Line accesses served by L1/L2.
  double mem_ns = 0;     ///< Line accesses served by memory (scalable by
                         ///< bus contention).
  double sender_busy_ns = 0;  ///< CPU time burnt on the sending core.
  double recv_busy_ns = 0;    ///< CPU time burnt on the receiving core.
  [[nodiscard]] double total() const { return fixed_ns + cache_ns + mem_ns; }
};

class LmtModels {
 public:
  struct Options {
    std::uint32_t ring_bufs = 2;
    std::size_t ring_buf_bytes = 32 * KiB;
    /// kDefaultNt streams only at/above this size (mirrors NEMO_NT_MIN:
    /// half the paper machine's 4 MiB shared L2).
    std::size_t nt_min = 2 * MiB;
    std::size_t pipe_window = 64 * KiB;
    /// Memory-bus contention factor per extra concurrent streaming flow.
    double contention_per_flow = 0.75;
    /// ALU cost of the reduction combine per operand byte for a one-lane
    /// scalar fold (dependent load-op-store chain, not peak FLOPs).
    double fold_ns_per_byte = 0.12;
    /// Effective lanes of the leader's fold kernel (1 = scalar, 4 = AVX2
    /// f64, 8 = AVX-512 f64). Divides the ALU term only — the memory side
    /// of the fold is width-independent, which is why wide kernels saturate
    /// against the deposit stream instead of scaling linearly.
    double fold_lanes = 4.0;
  };

  explicit LmtModels(SimMachine machine) : LmtModels(machine, Options{}) {}
  LmtModels(SimMachine machine, Options opt);

  [[nodiscard]] MemSystem& mem() { return mem_; }

  /// One message transfer sender->receiver between the given buffers.
  /// Mutates cache state (callers sequence iterations/warm-up).
  XferOutcome transfer(Strategy s, int sender_core, int recv_core,
                       std::uint64_t src, std::uint64_t dst,
                       std::size_t bytes);

  /// IMB-style pingpong: steady-state one-way throughput in MiB/s.
  double pingpong_mibs(Strategy s, int core_a, int core_b, std::size_t bytes,
                       int iters = 6);

  /// L2 misses for `iters` pingpong iterations (Table 2 rows 1-2).
  std::uint64_t pingpong_l2_misses(Strategy s, int core_a, int core_b,
                                   std::size_t bytes, int iters = 10);

  /// IMB-style alltoall on `cores`: aggregate throughput in MiB/s
  /// (Figure 7) using the pairwise-exchange schedule with bus contention.
  double alltoall_mibs(Strategy s, const std::vector<int>& cores,
                       std::size_t per_pair, int iters = 3);

  /// L2 misses for `iters` alltoall rounds (Table 2 rows 3-4).
  std::uint64_t alltoall_l2_misses(Strategy s, const std::vector<int>& cores,
                                   std::size_t per_pair, int iters = 10);

  /// Collective replay accounting (fig7 / coll_sweep): one operation's
  /// throughput, bytes memcpy'd, and steady-state L2 misses — the pt2pt
  /// algorithm (binomial bcast / pairwise exchange over the default copy
  /// ring, 2 copies per hop) against the shared-memory collective arena
  /// (write once, every reader pulls directly).
  struct CollOutcome {
    double mibs = 0;               ///< Steady-state throughput.
    std::uint64_t copy_bytes = 0;  ///< Bytes memcpy'd per operation.
    std::uint64_t l2_misses = 0;   ///< Per operation, steady state.
  };
  CollOutcome bcast_coll(bool shm, const std::vector<int>& cores,
                         std::size_t bytes, int iters = 3);
  CollOutcome alltoall_coll(bool shm, const std::vector<int>& cores,
                            std::size_t per_pair, int iters = 3);
  /// Allreduce replay: the p2p family is the linear gather-fold at rank 0
  /// plus a binomial result bcast; the shm family is the arena-v2 pipelined
  /// fold (concurrent sub-chunk deposits overlapped with the leader's
  /// ascending-rank combine, result chunks streamed to the readers behind
  /// the fold — modelled as max(deposit, fold) + one sub-chunk of fill
  /// latency each side rather than their sum).
  CollOutcome allreduce_coll(bool shm, const std::vector<int>& cores,
                             std::size_t bytes, int iters = 3,
                             std::size_t slot_bytes = 256 * KiB);
  /// Arena-barrier replay in nanoseconds per round: the coordinator polls
  /// n-1 remote arrival lines sequentially, plus one release line.
  double barrier_coll_ns(int nranks);

  /// NAS-IS-like run (Table 2 last row): `total_keys` 4-byte keys bucket-
  /// sorted across ranks for `iters` iterations. Returns {seconds, misses}.
  struct IsOutcome {
    double seconds = 0;
    std::uint64_t l2_misses = 0;
  };
  IsOutcome is_run(Strategy s, const std::vector<int>& cores,
                   std::size_t total_keys, int iters = 10);

  /// Reset caches + counters (cold start for a new experiment).
  void reset();

 private:
  struct PairBufs {
    std::uint64_t ring = 0;     ///< Copy-ring buffers (default LMT).
    std::uint64_t pipebuf = 0;  ///< Kernel pipe buffer (writev path).
  };
  PairBufs& pair_bufs(int a, int b);

  XferOutcome default_shm(int sc, int rc, std::uint64_t src,
                          std::uint64_t dst, std::size_t n, PairBufs& pb,
                          bool nt);
  XferOutcome vmsplice(int sc, int rc, std::uint64_t src, std::uint64_t dst,
                       std::size_t n, PairBufs& pb, bool writev);
  XferOutcome vmsplice_ioat(int sc, int rc, std::uint64_t src,
                            std::uint64_t dst, std::size_t n);
  XferOutcome knem(int sc, int rc, std::uint64_t src, std::uint64_t dst,
                   std::size_t n, bool dma, bool async);

  SimMachine machine_;
  Options opt_;
  MemSystem mem_;
  AddressAllocator alloc_;
  std::map<std::pair<int, int>, PairBufs> pair_bufs_;
};

}  // namespace nemo::sim
