// The per-world collective arena: one slot per rank plus a flat barrier,
// carved from the shm::Arena like the fastbox/ring regions and addressed by
// byte offset (threads and forked processes see the identical layout).
//
// Layout (all pieces cacheline-aligned, the whole region page-aligned so the
// World can mbind/interleave it — every rank reads every slot, so no single
// home node is right):
//
//   CollState                      geometry (+ the probe's release word)
//   BarrierCell[nranks]            per-rank arrival flags (padded)
//   AckCell[nranks]                per-rank consumption counters (padded)
//   ExchangeCell[2 * nranks]       per-rank seq-tagged one-line cells
//                                  (parity double-buffered, see below)
//   nranks x slot:
//     SlotHeader                   epoch / doorbell / direct-read location
//     table[2 * nranks] u64        per-dest (offset, len) for alltoallv;
//                                  a reduction's result location
//     payload[slot_bytes]          staged operand (or result share) bytes
//
// Synchronisation protocol. The cells below are the primitives; the
// protocols built from them live in core/coll_internal.hpp (slot stream:
// one writer, many readers; cell exchange: every rank publishes one line
// and reads every rank's) and core/collectives.cpp (exchange rounds:
// everyone writes and reads, rounds closed by the barrier — the
// reductions among them).
// A writer whose buffer peers can read in place publishes its location
// (locate()/resolve() below) instead of staging it in its slot.
//
//  - Epochs. Every collective instance owns a unique epoch value (the
//    per-Comm collective sequence number, shifted to leave room for phases).
//    A writer prepares its slot meta (doorbell reset, src_off, bytes) and
//    publishes with a RELEASE store of `epoch`; readers ACQUIRE-poll until
//    the slot's epoch matches the instance they are executing. Because all
//    ranks run collectives in the same order and each slot collective ends
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
//  - Barrier. An all-read-all arrival barrier over a monotonic sequence:
//    each rank RELEASE-stores its arrival sequence into its own padded
//    flag, then ACQUIRE-polls every live peer's flag until all read >= the
//    sequence, loading every pending flag in one pass so the misses
//    overlap. No coordinator and no release word: one cache-line transfer
//    per peer on the critical path instead of a gather plus a broadcast
//    miss, and no second buffer, since no rank reaches sequence k+1 before
//    every peer stored k. The spin lives in core/collectives.cpp.
//
//  - Cells. The all-read-all primitive: each rank owns one seq-tagged
//    cache line per sequence parity, `seq` plus a kCellPayload (56 B)
//    payload. A cell exchange (core/coll_internal.hpp) publishes every
//    rank's payload and has every rank read every live rank's cell, so it
//    needs no closing barrier: a writer can run at most one instance ahead
//    of the slowest reader, and the parity buffer it then overwrites is
//    one every reader has already consumed. (A single cell would race: a
//    rank whose next exchange finishes early could overwrite its cell
//    before a straggler read it.) Reductions and allgathers of at most
//    56 B per rank finish in one exchange, and auto-mode alltoallv trades
//    its total row bytes through one as its rank-consistent size proxy.
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
  std::uint64_t src_off;  ///< Direct-read location (locate()); kNil = staged.
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

/// Payload bytes of one exchange cell: the rest of its line after `seq`.
inline constexpr std::size_t kCellPayload =
    kCacheLine - sizeof(std::uint64_t);

/// One parity buffer of a rank's exchange cell: `payload` is written first,
/// then `seq` with RELEASE; readers ACQUIRE-poll seq for an exact match
/// (monotonic per parity, so the spin always terminates).
struct ExchangeCell {
  alignas(kCacheLine) std::uint64_t seq;
  std::byte payload[kCellPayload];
};
static_assert(sizeof(ExchangeCell) == kCacheLine);

/// Shared header of the whole region.
struct CollState {
  alignas(kCacheLine) std::uint32_t nranks;
  std::uint32_t slot_bytes;   ///< Payload capacity per rank.
  std::uint64_t slot_stride;  ///< Header + table + payload, line-rounded.
  /// Release word of the coordinator barrier, which the runtime no longer
  /// runs; kept only for perfbench's coll.arena_barrier_ns probe.
  alignas(kCacheLine) std::uint64_t release_seq;
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
                        n * sizeof(AckCell) + 2 * n * sizeof(ExchangeCell) +
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
                        n * sizeof(AckCell) + 2 * n * sizeof(ExchangeCell) +
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
  /// `shared_space`: every rank runs in this address space (a threads
  /// world), so any buffer is peer-readable, not only arena-resident ones.
  WorldColl(shm::Arena& arena, std::uint64_t off, bool shared_space = false)
      : arena_(&arena),
        st_(arena.at_as<CollState>(off)),
        shared_space_(shared_space) {
    std::byte* base = reinterpret_cast<std::byte*>(st_);
    barrier_ = reinterpret_cast<BarrierCell*>(base + sizeof(CollState));
    acks_ = reinterpret_cast<AckCell*>(barrier_ + st_->nranks);
    cells_ = reinterpret_cast<ExchangeCell*>(acks_ + st_->nranks);
    slots_ = reinterpret_cast<std::byte*>(cells_ + 2 * st_->nranks);
  }

  [[nodiscard]] bool valid() const { return st_ != nullptr; }
  [[nodiscard]] int nranks() const { return static_cast<int>(st_->nranks); }
  [[nodiscard]] std::size_t slot_bytes() const { return st_->slot_bytes; }
  [[nodiscard]] shm::Arena& arena() const { return *arena_; }

  // --- Direct-read locations ------------------------------------------------

  /// Where peers can read `bytes` at `p` in place, for a header's src_off or
  /// a table entry: the arena offset of an arena-resident buffer, the tagged
  /// address of any buffer when every rank shares this address space (the
  /// rule knem::Device applies for RemoteMode::kDirect), else kNil — the
  /// bytes must be staged through a slot. Empty buffers are never direct.
  [[nodiscard]] std::uint64_t locate(const void* p, std::size_t bytes) const {
    if (bytes == 0) return shm::kNil;
    if (arena_->contains(p, bytes)) return arena_->offset_of(p);
    if (shared_space_) return reinterpret_cast<std::uintptr_t>(p) | kAddrTag;
    return shm::kNil;
  }
  /// The reader-side view of a non-kNil locate() result.
  [[nodiscard]] const std::byte* resolve(std::uint64_t loc) const {
    if ((loc & kAddrTag) != 0)
      return reinterpret_cast<const std::byte*>(
          static_cast<std::uintptr_t>(loc & ~kAddrTag));
    return arena_->at(loc);
  }

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

  // --- Exchange cells (all-read-all, parity double-buffered) ---------------

  /// Publish rank r's `bytes` (<= kCellPayload) for instance `seq` into the
  /// parity-selected buffer: payload first, seq RELEASE-last.
  void cell_publish(int r, std::uint64_t seq, const void* src,
                    std::size_t bytes) const {
    NEMO_ASSERT(bytes <= kCellPayload);
    ExchangeCell& c = cell(r, seq);
    if (bytes > 0) std::memcpy(c.payload, src, bytes);
    shm::aref(c.seq).store(seq, std::memory_order_release);
  }
  /// Has rank r published instance `seq`? Exact match: the same-parity
  /// buffer only ever holds seq-2 (stale, keep spinning) or seq — a writer
  /// cannot reach seq+2 before every rank consumed seq (all-read-all).
  [[nodiscard]] bool cell_ready(int r, std::uint64_t seq) const {
    return shm::aref(cell(r, seq).seq).load(std::memory_order_acquire) ==
           seq;
  }
  /// The payload behind a successful cell_ready (ordered by its acquire;
  /// stable until the calling rank publishes instance seq+1).
  [[nodiscard]] const std::byte* cell_payload(int r, std::uint64_t seq) const {
    return cell(r, seq).payload;
  }

  // --- Barrier primitives (the spin loops live with the engine so they
  // can keep pt2pt progress flowing) ---------------------------------------

  void barrier_arrive(int r, std::uint64_t seq) const {
    shm::aref(barrier_[r].seq).store(seq, std::memory_order_release);
  }
  [[nodiscard]] bool barrier_arrived(int r, std::uint64_t seq) const {
    return shm::aref(barrier_[r].seq).load(std::memory_order_acquire) >= seq;
  }
  /// Coordinator-barrier release word: the runtime's barrier
  /// (shm_barrier) has none; kept only for perfbench's
  /// coll.arena_barrier_ns probe.
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
  /// consuming stale bytes. Its exchange cells are left alone: they are
  /// exact-match, so no tombstone value can read as ready, and survivors
  /// skip fenced ranks instead. Idempotent. Returns the cell count
  /// reclaimed.
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
  [[nodiscard]] ExchangeCell& cell(int r, std::uint64_t seq) const {
    NEMO_ASSERT(r >= 0 && r < nranks());
    return cells_[2 * static_cast<std::uint64_t>(r) + (seq & 1)];
  }

  /// Marks a locate() result as an address rather than an arena offset
  /// (user-space addresses never set bit 63; arena offsets stay far below).
  static constexpr std::uint64_t kAddrTag = 1ull << 63;

  shm::Arena* arena_ = nullptr;
  CollState* st_ = nullptr;
  bool shared_space_ = false;
  BarrierCell* barrier_ = nullptr;
  AckCell* acks_ = nullptr;
  ExchangeCell* cells_ = nullptr;
  std::byte* slots_ = nullptr;
};

}  // namespace nemo::coll
