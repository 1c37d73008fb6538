// Per-strategy replay models: each LMT mechanism is executed against the
// cache/memory simulator as the exact sequence of memory accesses, syscalls
// and handshakes it performs on real hardware. These models regenerate the
// paper's figures (3-7) and the cache-miss table (Table 2) deterministically.
// They cover the paper's strategies only; this repo's collective arena is
// measured on the runtime (perfbench, coll_sweep, fig7's real block), not
// replayed here.
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

  /// Per-rank send/receive matrices of a pairwise exchange: block (i -> j)
  /// sits at sbuf[i] + j*per_pair and lands at rbuf[j] + i*per_pair.
  struct ExchangeBufs {
    std::vector<std::uint64_t> sbuf, rbuf;
    std::size_t per_pair = 0;
  };
  ExchangeBufs alltoall_bufs(int n, std::size_t per_pair);
  /// One pairwise-exchange round over `cores` (n-1 steps, both directions
  /// of every pair, bus contention per step); returns its time in ns.
  double exchange_round(Strategy s, const std::vector<int>& cores,
                        const ExchangeBufs& x);

  XferOutcome default_shm(int sc, int rc, std::uint64_t src,
                          std::uint64_t dst, std::size_t n, PairBufs& pb,
                          bool nt);
  XferOutcome vmsplice(int sc, int rc, std::uint64_t src, std::uint64_t dst,
                       std::size_t n, PairBufs& pb, bool writev);
  XferOutcome vmsplice_ioat(int sc, int rc, std::uint64_t src,
                            std::uint64_t dst, std::size_t n);
  XferOutcome knem(int sc, int rc, std::uint64_t src, std::uint64_t dst,
                   std::size_t n, bool dma, bool async);

  Options opt_;
  MemSystem mem_;
  AddressAllocator alloc_;
  std::map<std::pair<int, int>, PairBufs> pair_bufs_;
};

}  // namespace nemo::sim
