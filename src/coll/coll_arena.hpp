// The per-world collective arena: one slot per rank plus a flat barrier,
// carved from the shm::Arena like the fastbox/ring regions and addressed by
// byte offset (threads and forked processes see the identical layout).
//
// Layout (all pieces cacheline-aligned, the whole region page-aligned so the
// World can mbind/interleave it — every rank reads every slot, so no single
// home node is right):
//
//   CollState                      geometry + the barrier release word
//   BarrierCell[nranks]            per-rank arrival flags (padded)
//   AckCell[nranks]                per-rank consumption counters (padded)
//   ProbeCell[2 * nranks]          per-rank seq-tagged count-probe cells
//                                  (parity double-buffered, see below)
//   nranks x slot:
//     SlotHeader                   epoch / doorbell / direct-read offset
//     table[2 * nranks] u64        per-dest (offset, len) for alltoallv
//     payload[slot_bytes]          staged operand bytes
//
// Synchronisation protocol. The cells below are the primitives; the slot
// protocols built from them live in core/coll_internal.hpp (slot stream:
// one writer, many readers; ordered fold: many writers, one folding
// leader) and core/collectives.cpp (exchange rounds: everyone writes and
// reads, rounds closed by the barrier).
//
//  - Epochs. Every collective instance owns a unique epoch value (the
//    per-Comm collective sequence number, shifted to leave room for phases).
//    A writer prepares its slot meta (doorbell reset, src_off, bytes) and
//    publishes with a RELEASE store of `epoch`; readers ACQUIRE-poll until
//    the slot's epoch matches the instance they are executing. Because all
//    ranks run collectives in the same order and each shm collective ends
//    with a completion handshake (barrier or ack wait), an epoch value can
//    never be observed stale — the previous instance fully drained.
//
//  - Doorbell. `chunks` counts payload chunks published within the epoch
//    (RELEASE-stored after the chunk bytes). Readers pipeline behind the
//    writer by acquiring `chunks >= k` instead of waiting for the whole
//    message — this is what lets a bcast larger than the slot stream
//    through it ring-style.
//
//  - Acks. Readers RELEASE-store epoch-tagged consumption counters
//    ((epoch << 24) | chunks_consumed) into their own padded AckCell; the
//    writer ACQUIRE-polls them before overwriting a sub-buffer and before
//    returning. The epoch tag makes stale counters from earlier collectives
//    compare strictly smaller, so cells never need resetting.
//
//  - Barrier. A sense-reversing barrier generalised to a monotonic
//    sequence: each rank RELEASE-stores its arrival sequence into its padded
//    flag, the coordinator gathers all flags and RELEASE-stores the global
//    release word, everyone else spins on that single word. O(1) cache
//    lines per rank per barrier instead of the O(log n) cell-queue messages
//    of the pt2pt dissemination barrier.
//
//  - Count probes. Auto-mode alltoallv needs a rank-consistent size proxy
//    before it can choose a family, but its counts are asymmetric — so the
//    ranks exchange one u64 (their total row bytes) through seq-tagged
//    ProbeCells next to the alltoallv count tables. Cells are
//    double-buffered by sequence parity: every rank reads every rank's
//    value each instance, so a writer can run at most one instance ahead
//    of the slowest reader, and the parity buffer it then overwrites is
//    one every reader has already consumed. (A single cell would race: a
//    rank whose next alltoallv exchanges zero bytes with a straggler can
//    overwrite its cell before that straggler read it.)
#pragma once

#include <cstdint>
#include <cstring>

#include "common/common.hpp"
#include "shm/arena.hpp"

namespace nemo::coll {

/// One rank's slot header. The writer owns every field; readers only load.
struct SlotHeader {
  alignas(kCacheLine) std::uint64_t epoch;  ///< RELEASE-published last.
  std::uint64_t chunks;   ///< Doorbell: payload chunks published this epoch.
  std::uint64_t src_off;  ///< Direct-read arena offset; kNil = staged.
  std::uint64_t bytes;    ///< Op-specific meta (bytes, rounds, ...).
};
static_assert(sizeof(SlotHeader) == kCacheLine);

/// Barrier arrival flag, one line per rank so arrivals never bounce.
struct BarrierCell {
  alignas(kCacheLine) std::uint64_t seq;
};
static_assert(sizeof(BarrierCell) == kCacheLine);

/// Reader consumption counter, epoch-tagged: (epoch << 24) | consumed
/// (see ack_value() for the bit-budget rationale).
struct AckCell {
  alignas(kCacheLine) std::uint64_t tagged;
};
static_assert(sizeof(AckCell) == kCacheLine);

/// One parity buffer of a rank's count-probe cell: `value` is published
/// first, then `seq` with RELEASE; readers ACQUIRE-poll seq for an exact
/// match (monotonic per parity, so the spin always terminates).
struct ProbeCell {
  alignas(kCacheLine) std::uint64_t seq;
  std::uint64_t value;
};
static_assert(sizeof(ProbeCell) == kCacheLine);

/// Shared header of the whole region.
struct CollState {
  alignas(kCacheLine) std::uint32_t nranks;
  std::uint32_t slot_bytes;   ///< Payload capacity per rank.
  std::uint64_t slot_stride;  ///< Header + table + payload, line-rounded.
  alignas(kCacheLine) std::uint64_t release_seq;  ///< Barrier release.
};

/// View over one world's collective arena (cheap to copy; the engine keeps
/// one). Default-constructed views are invalid placeholders.
class WorldColl {
 public:
  /// Number of pipeline stages a slot stream splits the slot into (the
  /// writer may run this many chunks ahead of the slowest reader).
  static constexpr std::uint64_t kBcastSubBufs = 4;

  static std::uint64_t table_bytes(int nranks) {
    return round_up(2 * sizeof(std::uint64_t) *
                        static_cast<std::uint64_t>(nranks),
                    kCacheLine);
  }

  static std::uint64_t slot_stride(int nranks, std::uint32_t slot_bytes) {
    return sizeof(SlotHeader) + table_bytes(nranks) +
           round_up(slot_bytes, kCacheLine);
  }

  /// Exact page-rounded extent create() allocates (the span to mbind).
  static std::size_t region_bytes(int nranks, std::uint32_t slot_bytes) {
    std::uint64_t n = static_cast<std::uint64_t>(nranks);
    return round_up(sizeof(CollState) + n * sizeof(BarrierCell) +
                        n * sizeof(AckCell) + 2 * n * sizeof(ProbeCell) +
                        n * slot_stride(nranks, slot_bytes),
                    shm::Arena::kPageBytes);
  }

  /// Arena bytes to budget for create() (region + alignment slack).
  static std::size_t footprint(int nranks, std::uint32_t slot_bytes) {
    return region_bytes(nranks, slot_bytes) + shm::Arena::kPageBytes;
  }

  /// Carve and zero-init the region (page-aligned so the caller can bind or
  /// interleave exactly these pages).
  static std::uint64_t create(shm::Arena& arena, int nranks,
                              std::uint32_t slot_bytes) {
    NEMO_ASSERT(nranks >= 1);
    NEMO_ASSERT(slot_bytes >= kCacheLine && slot_bytes % kCacheLine == 0);
    std::uint64_t n = static_cast<std::uint64_t>(nranks);
    std::size_t total = sizeof(CollState) + n * sizeof(BarrierCell) +
                        n * sizeof(AckCell) + 2 * n * sizeof(ProbeCell) +
                        n * slot_stride(nranks, slot_bytes);
    std::uint64_t off = arena.alloc_pages(total);
    std::memset(arena.at(off), 0, total);
    auto* st = arena.at_as<CollState>(off);
    st->nranks = static_cast<std::uint32_t>(nranks);
    st->slot_bytes = slot_bytes;
    st->slot_stride = slot_stride(nranks, slot_bytes);
    return off;
  }

  WorldColl() = default;
  WorldColl(shm::Arena& arena, std::uint64_t off)
      : arena_(&arena), st_(arena.at_as<CollState>(off)) {
    std::byte* base = reinterpret_cast<std::byte*>(st_);
    barrier_ = reinterpret_cast<BarrierCell*>(base + sizeof(CollState));
    acks_ = reinterpret_cast<AckCell*>(barrier_ + st_->nranks);
    probes_ = reinterpret_cast<ProbeCell*>(acks_ + st_->nranks);
    slots_ = reinterpret_cast<std::byte*>(probes_ + 2 * st_->nranks);
  }

  [[nodiscard]] bool valid() const { return st_ != nullptr; }
  [[nodiscard]] int nranks() const { return static_cast<int>(st_->nranks); }
  [[nodiscard]] std::size_t slot_bytes() const { return st_->slot_bytes; }
  [[nodiscard]] shm::Arena& arena() const { return *arena_; }

  [[nodiscard]] SlotHeader* header(int r) const {
    return reinterpret_cast<SlotHeader*>(slot_base(r));
  }
  [[nodiscard]] std::uint64_t* table(int r) const {
    return reinterpret_cast<std::uint64_t*>(slot_base(r) +
                                            sizeof(SlotHeader));
  }
  [[nodiscard]] std::byte* payload(int r) const {
    return slot_base(r) + sizeof(SlotHeader) + table_bytes(nranks());
  }

  // --- Epoch / doorbell (writer side: rank r's own slot only) --------------

  /// Open epoch `e` on rank r's slot: reset the doorbell, record meta, then
  /// RELEASE-publish the epoch. Safe because the previous collective's
  /// completion handshake ordered every old reader before this store.
  void begin_epoch(int r, std::uint64_t e, std::uint64_t src_off,
                   std::uint64_t bytes) const {
    SlotHeader* h = header(r);
    shm::aref(h->chunks).store(0, std::memory_order_relaxed);
    h->src_off = src_off;
    h->bytes = bytes;
    shm::aref(h->epoch).store(e, std::memory_order_release);
  }

  void publish_chunks(int r, std::uint64_t k) const {
    shm::aref(header(r)->chunks).store(k, std::memory_order_release);
  }

  /// Reader: is rank r's slot at epoch `e` with at least `k` chunks?
  [[nodiscard]] bool ready(int r, std::uint64_t e, std::uint64_t k) const {
    SlotHeader* h = header(r);
    if (shm::aref(h->epoch).load(std::memory_order_acquire) != e)
      return false;
    return k == 0 ||
           shm::aref(h->chunks).load(std::memory_order_acquire) >= k;
  }

  // --- Epoch-tagged acks ---------------------------------------------------

  /// 24 bits of chunk count (a 16M-chunk message at the 64 B minimum chunk
  /// is 1 GiB; practical sub-chunks are KiB-sized) leave 40 bits of epoch.
  /// Epochs carry 3 phase bits (core/collectives.cpp), so the budget is
  /// ~2^37 collective instances — weeks of continuous back-to-back
  /// operations. Both budgets are asserted (always-on) so an overflow
  /// fails loudly instead of silently breaking the tag's monotonicity.
  static std::uint64_t ack_value(std::uint64_t e, std::uint64_t consumed) {
    NEMO_ASSERT(consumed < (1ull << 24) && e < (1ull << 40));
    return (e << 24) | consumed;
  }
  void set_ack(int r, std::uint64_t e, std::uint64_t consumed) const {
    shm::aref(acks_[r].tagged)
        .store(ack_value(e, consumed), std::memory_order_release);
  }
  [[nodiscard]] bool acked(int r, std::uint64_t e,
                           std::uint64_t consumed) const {
    return shm::aref(acks_[r].tagged).load(std::memory_order_acquire) >=
           ack_value(e, consumed);
  }

  // --- Count probes (auto-mode alltoallv's symmetric size proxy) -----------

  /// Publish rank r's probe value for instance `seq` (parity-selected
  /// buffer; value first, seq RELEASE-last).
  void probe_publish(int r, std::uint64_t seq, std::uint64_t value) const {
    ProbeCell& c = probe_cell(r, seq);
    shm::aref(c.value).store(value, std::memory_order_relaxed);
    shm::aref(c.seq).store(seq, std::memory_order_release);
  }
  /// Has rank r published instance `seq`? Exact match: the same-parity
  /// buffer only ever holds seq-2 (stale, keep spinning) or seq — a writer
  /// cannot reach seq+2 before every rank consumed seq (all-read-all).
  [[nodiscard]] bool probe_ready(int r, std::uint64_t seq) const {
    return shm::aref(probe_cell(r, seq).seq)
               .load(std::memory_order_acquire) == seq;
  }
  /// The value behind a successful probe_ready (ordered by its acquire).
  [[nodiscard]] std::uint64_t probe_value(int r, std::uint64_t seq) const {
    return shm::aref(probe_cell(r, seq).value)
        .load(std::memory_order_relaxed);
  }

  // --- Barrier primitives (the spin loops live with the engine so they
  // can keep pt2pt progress flowing) ---------------------------------------

  void barrier_arrive(int r, std::uint64_t seq) const {
    shm::aref(barrier_[r].seq).store(seq, std::memory_order_release);
  }
  [[nodiscard]] bool barrier_arrived(int r, std::uint64_t seq) const {
    return shm::aref(barrier_[r].seq).load(std::memory_order_acquire) >= seq;
  }
  void barrier_release(std::uint64_t seq) const {
    shm::aref(st_->release_seq).store(seq, std::memory_order_release);
  }
  [[nodiscard]] bool barrier_released(std::uint64_t seq) const {
    return shm::aref(st_->release_seq).load(std::memory_order_acquire) >=
           seq;
  }

  // --- Death-fence reclamation ---------------------------------------------

  /// Tombstone a dead rank's cells so no surviving wait can park on them:
  /// its barrier arrival and ack compare with >=, so pinning them to the
  /// maximum makes the dead rank permanently "arrived"/"acked"; its slot
  /// epoch is pinned to ~0, which no live epoch ever equals, so ready()
  /// reads of the dead slot stay false and survivors skip it instead of
  /// consuming stale bytes. Idempotent. Returns the cell count reclaimed.
  int reclaim_rank(int r) const {
    shm::aref(barrier_[r].seq).store(UINT64_MAX, std::memory_order_release);
    shm::aref(acks_[r].tagged).store(UINT64_MAX, std::memory_order_release);
    SlotHeader* h = header(r);
    shm::aref(h->chunks).store(0, std::memory_order_relaxed);
    shm::aref(h->epoch).store(UINT64_MAX, std::memory_order_release);
    return 3;
  }

 private:
  [[nodiscard]] std::byte* slot_base(int r) const {
    NEMO_ASSERT(r >= 0 && r < nranks());
    return slots_ + static_cast<std::uint64_t>(r) * st_->slot_stride;
  }
  [[nodiscard]] ProbeCell& probe_cell(int r, std::uint64_t seq) const {
    NEMO_ASSERT(r >= 0 && r < nranks());
    return probes_[2 * static_cast<std::uint64_t>(r) + (seq & 1)];
  }

  shm::Arena* arena_ = nullptr;
  CollState* st_ = nullptr;
  BarrierCell* barrier_ = nullptr;
  AckCell* acks_ = nullptr;
  ProbeCell* probes_ = nullptr;
  std::byte* slots_ = nullptr;
};

}  // namespace nemo::coll
