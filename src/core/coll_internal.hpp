// Internals of the collective implementations (core/collectives.cpp): the
// tag/epoch namespacing contract, the epoch-stall-counting wait, the fold
// kernel call, the cell exchange (every rank publishes one cache line and
// reads every rank's; reductions and allgathers of at most 56 B per rank,
// and auto-mode alltoallv's size probe), and the slot stream (one writer,
// many readers; bcast). Both families derive tags and epochs from the SAME
// per-Comm collective sequence number, so back-to-back collectives cannot
// cross-match.
#pragma once

#include <algorithm>

#include "core/comm.hpp"
#include "shm/nt_copy.hpp"

namespace nemo::core::coll_detail {

/// Internal pt2pt tags live in a reserved negative space, namespaced by the
/// per-Comm collective sequence number so back-to-back collectives cannot
/// cross-match.
inline constexpr int kCollTagBase = -(1 << 20);

/// Distinct tag for (collective instance, phase). Phases 0..15.
inline int coll_tag(std::uint64_t coll_seq, int phase) {
  return kCollTagBase - static_cast<int>((coll_seq % 4096) * 16) - phase;
}

/// Arena epoch for collective instance `cs` (3 phase bits appended; +1
/// keeps epoch 0 reserved for "slot never used").
inline std::uint64_t epoch_base(std::uint64_t cs) { return (cs + 1) << 3; }

inline std::uint64_t div_ceil(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0 : (a + b - 1) / b;
}

/// Binomial tree over virtual ranks [0, n) rooted at 0, as seen from
/// virtual rank `v`: up(parent) receives from the parent (every rank but
/// the root), then down(child) forwards to each child.
template <typename Up, typename Down>
void binomial(int v, int n, Up&& up, Down&& down) {
  if (v != 0) {
    int mask = 1;
    while ((v & mask) == 0) mask <<= 1;
    up(v & ~mask);
  }
  for (int mask = 1; mask < n && (v & (mask - 1)) == 0; mask <<= 1)
    if ((v & mask) == 0 && (v | mask) < n) down(v | mask);
}

/// Engine::wait_until plus the epoch-stall count: with `stall`, a first
/// probe that misses counts one epoch stall ("readers arrive before writers
/// publish"); waits off an arena op's data path (size probes) pass false
/// so their misses stay out of the per-op stall rate (coll_epoch_stalls /
/// coll_shm_ops).
template <typename Pred>
void spin_until(Engine& eng, resil::Site site, int watch, bool stall,
                Pred&& ready) {
  if (ready()) return;
  if (stall) {
    eng.counters().coll_epoch_stalls++;
    if (trace::on())
      eng.tracer().emit(trace::kEpochStall, trace::kInstant,
                        static_cast<std::uint64_t>(watch));
  }
  eng.wait_until(site, watch, ready);
}

/// Cell exchange: publish this rank's `bytes` (<= coll::kCellPayload) into
/// its exchange cell for the next cell instance, wait for every live peer's
/// cell of the same instance, then hand `take(w, payload)` every live
/// rank's payload — rank `first`'s, then the others in ascending rank
/// order (this rank's own included). Every rank reads every live cell each
/// instance, so no writer gets two instances ahead of a reader and no
/// closing barrier is needed (coll_arena.hpp, "Cells"); the payloads stay
/// valid until this rank's next exchange. Fenced ranks are skipped: their
/// cells are never tombstoned. With `stall`, waits count epoch stalls.
template <typename Take>
void cell_exchange(Engine& eng, const void* mine, std::size_t bytes,
                   bool stall, int first, Take&& take) {
  coll::WorldColl& cw = eng.coll_view();
  int n = eng.nranks(), r = eng.rank();
  std::uint64_t seq = eng.next_coll_cell_seq();
  resil::fault_point(resil::Site::kCollDeposit, r);
  cw.cell_publish(r, seq, mine, bytes);
  for (int w = 0; w < n; ++w)
    if (w != r && !eng.rank_fenced(w))
      spin_until(eng, resil::Site::kCollProbe, w, stall,
                 [&] { return cw.cell_ready(w, seq); });
  take(first, cw.cell_payload(first, seq));
  for (int w = 0; w < n; ++w)
    if (w != first && !eng.rank_fenced(w)) take(w, cw.cell_payload(w, seq));
}

/// Slot stream: rank `writer` serves `bytes` to every other rank through
/// its arena slot. A writer whose source is peer-readable
/// (WorldColl::locate) publishes its location and every reader copies
/// straight from it; any other source
/// crosses chunk by chunk through the slot's kBcastSubBufs sub-buffers
/// behind the doorbell, so readers pipeline behind the writer and a payload
/// larger than the slot streams through it ring-style. Readers ack every
/// chunk they consumed (epoch-tagged, so the cells never need resetting);
/// the acks gate sub-buffer reuse and the writer's return. Every rank but
/// the writer reads; fenced ranks never count. Every wait counts epoch
/// stalls.
class SlotStream {
 public:
  SlotStream(Engine& eng, int writer, std::uint64_t epoch, std::size_t bytes)
      : eng_(eng),
        cw_(eng.coll_view()),
        writer_(writer),
        epoch_(epoch),
        bytes_(bytes) {
    sub_ = chunk_bytes(cw_.slot_bytes());
    nsub_ = std::min<std::uint64_t>(
        std::max<std::uint64_t>(1, cw_.slot_bytes() / sub_),
        coll::WorldColl::kBcastSubBufs);
    chunks_ = std::max<std::uint64_t>(1, div_ceil(bytes, sub_));
  }

  /// Chunk size for a slot of `slot_bytes`: one of kBcastSubBufs
  /// cacheline-multiple sub-buffers.
  static std::size_t chunk_bytes(std::size_t slot_bytes) {
    std::size_t sub = std::max<std::size_t>(
        slot_bytes / coll::WorldColl::kBcastSubBufs, kCacheLine);
    return sub - sub % kCacheLine;
  }

  [[nodiscard]] std::size_t offset(std::uint64_t i) const {
    return static_cast<std::size_t>(i) * sub_;
  }
  [[nodiscard]] std::size_t length(std::uint64_t i) const {
    std::size_t off = offset(i);
    return off < bytes_ ? std::min(sub_, bytes_ - off) : 0;
  }
  /// The sub-buffer chunk `i` occupies in the writer's slot.
  [[nodiscard]] std::byte* buffer(std::uint64_t i) const {
    return cw_.payload(writer_) + (i % nsub_) * sub_;
  }

  // --- Writer --------------------------------------------------------------

  /// Wait until every reader acked `k` chunks.
  void wait_acks(std::uint64_t k) const {
    for (int q = 0; q < eng_.nranks(); ++q)
      if (q != writer_ && !eng_.rank_fenced(q))
        spin_until(eng_, resil::Site::kCollAck, q, true,
                   [&] { return cw_.acked(q, epoch_, k); });
  }
  /// The whole writer side; `nt` selects streaming stores for staging.
  void write(const void* src, bool nt) const {
    if (std::uint64_t loc = cw_.locate(src, bytes_); loc != shm::kNil) {
      cw_.begin_epoch(writer_, epoch_, loc, bytes_);
      wait_acks(1);
      return;
    }
    cw_.begin_epoch(writer_, epoch_, shm::kNil, bytes_);
    const auto* in = static_cast<const std::byte*>(src);
    for (std::uint64_t i = 0; i < chunks_; ++i) {
      // Chunk i's sub-buffer is free once every reader consumed its
      // previous tenant, chunk i - kBcastSubBufs.
      if (i >= nsub_) wait_acks(i - nsub_ + 1);
      if (std::size_t len = length(i))
        shm::copy_for(nt, buffer(i), in + offset(i), len);
      cw_.publish_chunks(writer_, i + 1);
    }
    wait_acks(chunks_);
  }

  // --- Reader (rank `self`) ------------------------------------------------

  /// The whole reader side: one direct copy, or every chunk in order, each
  /// acked once copied.
  void read(int self, void* dst, bool nt) const {
    auto* out = static_cast<std::byte*>(dst);
    spin_until(eng_, resil::Site::kCollDoorbell, writer_, true,
               [&] { return cw_.ready(writer_, epoch_, 0); });
    std::uint64_t src_off = cw_.header(writer_)->src_off;
    if (src_off != shm::kNil) {
      shm::copy_for(nt, out, cw_.resolve(src_off), bytes_);
      cw_.set_ack(self, epoch_, 1);
      return;
    }
    for (std::uint64_t i = 0; i < chunks_; ++i) {
      spin_until(eng_, resil::Site::kCollDoorbell, writer_, true,
                 [&] { return cw_.ready(writer_, epoch_, i + 1); });
      if (std::size_t len = length(i))
        shm::copy_for(nt, out + offset(i), buffer(i), len);
      cw_.set_ack(self, epoch_, i + 1);
    }
  }

 private:
  Engine& eng_;
  coll::WorldColl& cw_;
  int writer_;
  std::uint64_t epoch_;
  std::size_t bytes_;
  std::size_t sub_;       ///< Chunk bytes (cacheline multiple).
  std::uint64_t nsub_;    ///< Sub-buffers resident at once.
  /// >= 1, so an empty payload still completes one doorbell/ack handshake.
  std::uint64_t chunks_;
};

inline simd::Op to_simd(Comm::ReduceOp op) {
  switch (op) {
    case Comm::ReduceOp::kSum: return simd::Op::kSum;
    case Comm::ReduceOp::kProd: return simd::Op::kProd;
    case Comm::ReduceOp::kMin: return simd::Op::kMin;
    case Comm::ReduceOp::kMax: return simd::Op::kMax;
  }
  return simd::Op::kSum;
}

/// One per-chunk combine: dst[i] = op(dst[i], src[i]) through the engine's
/// resolved kernel. Element-wise vertical folds only, so every kernel is
/// bit-identical to the scalar oracle and the ascending-rank fold order
/// stays intact.
template <typename T>
void fold_chunk(Engine& eng, Comm::ReduceOp op, T* dst, const T* src,
                std::size_t n) {
  simd::Kernel k = eng.simd_kernel();
  simd::fold(k, to_simd(op), dst, src, n);
  auto ki = static_cast<std::size_t>(k);
  eng.counters().simd_fold_ops[ki]++;
  eng.counters().simd_fold_bytes[ki] += n * sizeof(T);
}

}  // namespace nemo::core::coll_detail
