// Shared internals of the collective implementations (core/collectives.cpp
// and coll/coll_hier.cpp): the tag/epoch namespacing contract, the one
// progress-preserving wait, the fold kernel call, and two arena slot
// protocols — the slot stream (one writer, many readers; flat bcast and the
// hierarchical legs) and the ordered fold (many writers, one folding node
// leader; hierarchical reduce only — the flat reduce is a partitioned fold
// over exchange rounds, in core/collectives.cpp). The tag and epoch
// formulas are load-bearing across translation units: both families derive
// them from the SAME per-Comm collective sequence number, so two files
// disagreeing on them would cross-match messages from different collective
// instances.
#pragma once

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

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

/// Spin until `ready()` while keeping pt2pt progress flowing. Bounded: the
/// liveness guard turns a dead peer into PeerDeadError (running the local
/// epoch fence first) instead of spinning forever. `watch` is the specific
/// rank the wait depends on, -1 when any peer could unblock it. With
/// `stall`, a first probe that misses counts one epoch stall (the telemetry
/// the tuner reads as "readers arrive before writers publish"); waits off
/// an arena op's data path (count probes, hierarchical legs) pass false so
/// their misses stay out of the stall rate the feedback pass divides by
/// coll_shm_ops. `ready` may do work, as long as the call that returns true
/// has finished it.
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
  resil::WaitGuard guard = eng.make_guard(site, watch);
  std::uint32_t spins = 0;
  try {
    while (!ready()) {
      if ((++spins & 0x3F) == 0) {
        eng.progress();
        guard.check();
        std::this_thread::yield();
      }
    }
  } catch (const resil::PeerDeadError& e) {
    eng.peer_death_fence(e);
    throw;
  }
}

/// Slot stream: rank `writer` serves `bytes` to a set of readers through
/// its arena slot. A writer whose source is peer-readable
/// (WorldColl::locate) publishes its location and every reader copies
/// straight from it; any other source
/// crosses chunk by chunk through the slot's kBcastSubBufs sub-buffers
/// behind the doorbell, so readers pipeline behind the writer and a payload
/// larger than the slot streams through it ring-style. Readers ack every
/// chunk they consumed (epoch-tagged, so the cells never need resetting);
/// the acks gate sub-buffer reuse and the writer's return. A `reads(k)`
/// predicate names the readers; the writer and fenced ranks never count.
class SlotStream {
 public:
  SlotStream(Engine& eng, int writer, std::uint64_t epoch, std::size_t bytes,
             bool stalls)
      : eng_(eng),
        cw_(eng.coll_view()),
        writer_(writer),
        epoch_(epoch),
        bytes_(bytes),
        stalls_(stalls) {
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

  [[nodiscard]] int writer() const { return writer_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] bool stalls() const { return stalls_; }
  /// Chunks in the stream: at least one, so an empty payload still
  /// completes one doorbell/ack handshake.
  [[nodiscard]] std::uint64_t chunks() const { return chunks_; }
  [[nodiscard]] std::size_t offset(std::uint64_t i) const {
    return static_cast<std::size_t>(i) * sub_;
  }
  [[nodiscard]] std::size_t length(std::uint64_t i) const {
    std::size_t off = offset(i);
    return off < bytes_ ? std::min(sub_, bytes_ - off) : 0;
  }
  /// The sub-buffer chunk `i` occupies in `owner`'s slot (the ordered fold
  /// stages writer operands on the same geometry).
  [[nodiscard]] std::byte* buffer(int owner, std::uint64_t i) const {
    return cw_.payload(owner) + (i % nsub_) * sub_;
  }

  // --- Writer --------------------------------------------------------------

  /// Open the epoch on the writer's slot (kNil = staged).
  void open(std::uint64_t src_off = shm::kNil) const {
    cw_.begin_epoch(writer_, epoch_, src_off, bytes_);
  }
  void publish(std::uint64_t i) const { cw_.publish_chunks(writer_, i + 1); }
  /// Wait until every reader acked `k` chunks.
  template <typename Readers>
  void wait_acks(Readers&& reads, std::uint64_t k) const {
    for (int q = 0; q < eng_.nranks(); ++q)
      if (q != writer_ && reads(q) && !eng_.rank_fenced(q))
        spin_until(eng_, resil::Site::kCollAck, q, stalls_,
                   [&] { return cw_.acked(q, epoch_, k); });
  }
  /// The whole writer side; `nt` selects streaming stores for staging.
  template <typename Readers>
  void write(const void* src, bool nt, Readers&& reads) const {
    if (std::uint64_t loc = cw_.locate(src, bytes_); loc != shm::kNil) {
      open(loc);
      wait_acks(reads, 1);
      return;
    }
    open();
    const auto* in = static_cast<const std::byte*>(src);
    for (std::uint64_t i = 0; i < chunks_; ++i) {
      // Chunk i's sub-buffer is free once every reader consumed its
      // previous tenant, chunk i - kBcastSubBufs.
      if (i >= nsub_) wait_acks(reads, i - nsub_ + 1);
      if (std::size_t len = length(i))
        shm::copy_for(nt, buffer(writer_, i), in + offset(i), len);
      publish(i);
    }
    wait_acks(reads, chunks_);
  }

  // --- Reader (rank `self`) ------------------------------------------------

  /// Has the writer published chunk `i`?
  [[nodiscard]] bool ready(std::uint64_t i) const {
    return cw_.ready(writer_, epoch_, i + 1);
  }
  /// Has the writer published the previous tenant of chunk `i`'s
  /// sub-buffer (so a writer staging on the same geometry may reuse it)?
  [[nodiscard]] bool passed(std::uint64_t i) const {
    return i < nsub_ || ready(i - nsub_);
  }
  /// The whole reader side: one direct copy, or every chunk in order, each
  /// acked once copied.
  void read(int self, void* dst, bool nt) const {
    auto* out = static_cast<std::byte*>(dst);
    spin_until(eng_, resil::Site::kCollDoorbell, writer_, stalls_,
               [&] { return cw_.ready(writer_, epoch_, 0); });
    std::uint64_t src_off = cw_.header(writer_)->src_off;
    if (src_off != shm::kNil) {
      shm::copy_for(nt, out, cw_.resolve(src_off), bytes_);
      cw_.set_ack(self, epoch_, 1);
      return;
    }
    for (std::uint64_t i = 0; i < chunks_; ++i) {
      spin_until(eng_, resil::Site::kCollDoorbell, writer_, stalls_,
                 [&] { return ready(i); });
      if (std::size_t len = length(i))
        shm::copy_for(nt, out + offset(i), buffer(writer_, i), len);
      cw_.set_ack(self, epoch_, i + 1);
    }
  }

 private:
  Engine& eng_;
  coll::WorldColl& cw_;
  int writer_;
  std::uint64_t epoch_;
  std::size_t bytes_;
  bool stalls_;
  std::size_t sub_;       ///< Chunk bytes (cacheline multiple).
  std::uint64_t nsub_;    ///< Sub-buffers resident at once.
  std::uint64_t chunks_;  ///< >= 1.
};

/// Ordered fold, writer side: this rank hands its operand to the leader
/// owning stream `lead`. A peer-readable operand publishes its location and
/// the leader folds straight from it; any other is staged chunk by chunk on
/// the lead stream's geometry in the writer's own slot. The leader's
/// doorbell for chunk k proves it folded chunk k out of every writer's
/// slot, which frees that sub-buffer.
class FoldWriter {
 public:
  FoldWriter(Engine& eng, const SlotStream& lead, const void* in)
      : eng_(eng), lead_(lead), in_(static_cast<const std::byte*>(in)) {
    coll::WorldColl& cw = eng.coll_view();
    std::size_t bytes = lead.bytes();
    std::uint64_t loc = cw.locate(in, bytes);
    chunks_ = loc != shm::kNil || bytes == 0 ? 0 : lead.chunks();
    cw.begin_epoch(eng.rank(), lead.epoch(), loc, chunks_);
  }

  /// Deposit everything, then wait for the fold's last doorbell (a direct
  /// operand is read chunk by chunk, so it stays live until then) and ack
  /// it so the leader can return and reuse its slot.
  void finish() {
    int leader = lead_.writer();
    spin_until(eng_, resil::Site::kCollDoorbell, leader, lead_.stalls(), [&] {
      while (step()) {
      }
      return dep_ == chunks_;
    });
    std::uint64_t last = lead_.chunks() - 1;
    spin_until(eng_, resil::Site::kCollDoorbell, leader, lead_.stalls(),
               [&] { return lead_.ready(last); });
    eng_.coll_view().set_ack(eng_.rank(), lead_.epoch(), last + 1);
  }

 private:
  /// Deposit the next chunk if its sub-buffer is free; never blocks.
  bool step() {
    if (dep_ == chunks_ || !lead_.passed(dep_)) return false;
    int self = eng_.rank();
    std::size_t len = lead_.length(dep_);
    trace::Span sp(eng_.tracer(), trace::kCollDeposit, trace::Mode::kRings,
                   dep_, len);
    resil::fault_point(resil::Site::kCollDeposit, self);
    std::memcpy(lead_.buffer(self, dep_), in_ + lead_.offset(dep_), len);
    eng_.coll_view().publish_chunks(self, ++dep_);
    return true;
  }

  Engine& eng_;
  const SlotStream& lead_;
  const std::byte* in_;
  std::uint64_t chunks_ = 0;  ///< Staged chunks (0 = direct or empty).
  std::uint64_t dep_ = 0;     ///< Chunks deposited.
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

/// Ordered fold, leader side: fold the operands of ranks [lo, hi) (the
/// leader's own is `in`) chunk by chunk into `acc`, each chunk seeded with
/// rank `seed`'s slice — or, seed < 0, with what `acc` already holds — and
/// then folded in ascending rank order. That is exactly the element-wise
/// order of the p2p oracle, independent of who leads, of deposit modes and
/// of chunk size, so results match it bit for bit. Fenced ranks contribute
/// nothing. Chunk t's doorbell on `lead` is published once it is folded;
/// the fold returns once every writer acked the last chunk, when their
/// operands and slots are dead for this epoch.
template <typename T>
void fold_lead(Engine& eng, const SlotStream& lead, Comm::ReduceOp op,
               const T* in, int lo, int hi, int seed, T* acc) {
  coll::WorldColl& cw = eng.coll_view();
  int me = lead.writer();
  // Snapshot every writer's direct-read offset first: a direct writer
  // deposits nothing and may reopen its header for the NEXT collective as
  // soon as it saw the last doorbell — never re-read it mid-fold.
  std::vector<std::uint64_t> src_offs(static_cast<std::size_t>(hi - lo),
                                      shm::kNil);
  for (int w = lo; w < hi; ++w) {
    if (w == me || eng.rank_fenced(w)) continue;
    spin_until(eng, resil::Site::kCollGather, w, lead.stalls(),
               [&] { return cw.ready(w, lead.epoch(), 0); });
    src_offs[static_cast<std::size_t>(w - lo)] = cw.header(w)->src_off;
  }
  lead.open();
  for (std::uint64_t t = 0; t < lead.chunks(); ++t) {
    std::size_t first = lead.offset(t) / sizeof(T);
    std::size_t cnt = lead.length(t) / sizeof(T);
    if (cnt > 0) {
      trace::Span sp(eng.tracer(), trace::kCollFold, trace::Mode::kRings, t,
                     cnt * sizeof(T));
      T* dst = acc + first;
      auto slice_of = [&](int w) -> const T* {
        if (w == me) return in + first;
        std::uint64_t off = src_offs[static_cast<std::size_t>(w - lo)];
        if (off != shm::kNil)
          return reinterpret_cast<const T*>(cw.resolve(off)) + first;
        spin_until(eng, resil::Site::kCollDoorbell, w, lead.stalls(),
                   [&] { return cw.ready(w, lead.epoch(), t + 1); });
        return reinterpret_cast<const T*>(lead.buffer(w, t));
      };
      resil::fault_point(resil::Site::kCollFold, me);
      if (seed >= 0) std::memcpy(dst, slice_of(seed), cnt * sizeof(T));
      for (int w = lo; w < hi; ++w)
        if (w != seed && !eng.rank_fenced(w))
          fold_chunk(eng, op, dst, slice_of(w), cnt);
    }
    lead.publish(t);
  }
  lead.wait_acks([&](int w) { return w >= lo && w < hi; }, lead.chunks());
}

}  // namespace nemo::core::coll_detail
