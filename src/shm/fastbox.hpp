// Per-ordered-pair SPSC fastbox, after MPICH Nemesis' fboxes — grown from a
// single inline slot into a small N-slot ring: the sender publishes eager
// messages without ever touching the MPSC recv queue's atomic-exchange
// enqueue, and with N slots a burst no longer falls back to the queue after
// the first message. When every slot is occupied the sender falls back to
// the queue; the engine merges the two streams back into sender order using
// the per-pair message sequence carried in both.
//
// Geometry: the World sizes each slot from the eager activation
// (tune::fastbox_slot_for: lmt_activation rounded up to a cache line plus
// the header line, 8,256 B at the formula's 8 KiB), so every auto-routed
// eager message fits one slot; NEMO_FASTBOX_SLOTS sets the slot count. Per
// message only the slot's flag/header line and the payload lines it carries
// move in steady state; wpos/rpos are single-owner words on separate lines,
// never shared. Only the state block and the header lines are zeroed at
// creation: no payload byte is read before a put writes it, so payload
// pages stay unfaulted until a pair sends messages that reach them.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/common.hpp"
#include "common/iovec.hpp"
#include "shm/arena.hpp"

namespace nemo::shm {

/// One slot: flag + header on the first cache line, payload after. The
/// sender writes everything, then releases via `flag`; the receiver only
/// polls `flag`, consumes in place, and stores 0 to hand the slot back.
struct FastboxSlot {
  alignas(kCacheLine) std::uint32_t flag;  ///< 0 = empty, 1 = full.
  std::uint32_t src;                       ///< Sending rank.
  std::int32_t tag;
  std::uint32_t msg_seq;      ///< Per-(src,dst) sequence (stream merge key).
  std::uint32_t context;
  std::uint32_t payload_len;
  static constexpr std::size_t kHeaderBytes = 64;

  [[nodiscard]] const std::byte* payload() const {
    return reinterpret_cast<const std::byte*>(this) + kHeaderBytes;
  }
  [[nodiscard]] std::byte* payload() {
    return reinterpret_cast<std::byte*>(this) + kHeaderBytes;
  }
};
static_assert(sizeof(FastboxSlot) == FastboxSlot::kHeaderBytes);

/// Shared-memory header of one fastbox ring. wpos is sender-owned, rpos
/// receiver-owned; each sits on its own line so the positions never bounce.
struct FastboxState {
  alignas(kCacheLine) std::uint32_t nslots;
  std::uint32_t slot_bytes;  ///< Header + payload stride per slot.
  alignas(kCacheLine) std::uint32_t wpos;  ///< Next slot the sender fills.
  alignas(kCacheLine) std::uint32_t rpos;  ///< Next slot the receiver reads.
  // nslots * slot_bytes of FastboxSlot follow.
};

/// Cheap view over one fastbox ring in the arena. Default-constructed views
/// are invalid placeholders (the engine keeps a dense per-peer vector).
class Fastbox {
 public:
  static constexpr std::uint32_t kDefaultSlots = 4;
  static constexpr std::uint32_t kDefaultSlotBytes = 2 * KiB;
  /// Upper bound on slot size: eager cells stop paying off past 16 KiB.
  static constexpr std::uint32_t kMaxSlotBytes = 16 * KiB;

  /// Bytes one box occupies: the state block plus its slots.
  static constexpr std::size_t footprint(std::uint32_t nslots,
                                         std::uint32_t slot_bytes) {
    return sizeof(FastboxState) + std::size_t{nslots} * slot_bytes;
  }

  /// With `page_align`, the whole box is carved as whole pages so the
  /// caller can mbind it (NUMA placement) without touching neighbours.
  static std::uint64_t create(Arena& arena,
                              std::uint32_t nslots = kDefaultSlots,
                              std::uint32_t slot_bytes = kDefaultSlotBytes,
                              bool page_align = false) {
    NEMO_ASSERT(nslots >= 1);
    NEMO_ASSERT(slot_bytes > FastboxSlot::kHeaderBytes &&
                slot_bytes <= kMaxSlotBytes &&
                slot_bytes % kCacheLine == 0);
    std::size_t total = footprint(nslots, slot_bytes);
    std::uint64_t off = page_align ? arena.alloc_pages(total)
                                   : arena.alloc(total, kCacheLine);
    auto* st = arena.at_as<FastboxState>(off);
    std::memset(st, 0, sizeof(FastboxState));
    st->nslots = nslots;
    st->slot_bytes = slot_bytes;
    Fastbox fb(arena, off);
    for (std::uint32_t i = 0; i < nslots; ++i)
      std::memset(fb.slot(i), 0, FastboxSlot::kHeaderBytes);
    return off;
  }

  Fastbox() = default;
  Fastbox(Arena& arena, std::uint64_t off)
      : st_(arena.at_as<FastboxState>(off)) {}

  [[nodiscard]] bool valid() const { return st_ != nullptr; }
  [[nodiscard]] std::uint32_t nslots() const { return st_->nslots; }
  [[nodiscard]] std::size_t payload_capacity() const {
    return st_->slot_bytes - FastboxSlot::kHeaderBytes;
  }

  /// Sender: publish a complete message, gathered from `segs` straight
  /// into the next free slot, if any. The segments must fit the payload.
  bool try_put(std::uint32_t src, std::int32_t tag, std::uint32_t msg_seq,
               std::uint32_t context, std::span<const ConstSegment> segs) {
    FastboxSlot* s = slot(st_->wpos);
    if (aref(s->flag).load(std::memory_order_acquire) != 0) return false;
    s->src = src;
    s->tag = tag;
    s->msg_seq = msg_seq;
    s->context = context;
    std::size_t len = 0;
    for (const ConstSegment& seg : segs) {
      NEMO_ASSERT(seg.len <= payload_capacity() - len);
      if (seg.len != 0) std::memcpy(s->payload() + len, seg.base, seg.len);
      len += seg.len;
    }
    s->payload_len = static_cast<std::uint32_t>(len);
    aref(s->flag).store(1, std::memory_order_release);
    st_->wpos = (st_->wpos + 1) % st_->nslots;  // Sender-private word.
    return true;
  }

  /// One contiguous message: the one-segment case of the gather above.
  bool try_put(std::uint32_t src, std::int32_t tag, std::uint32_t msg_seq,
               std::uint32_t context, const std::byte* data,
               std::size_t len) {
    const ConstSegment seg{data, len};
    return try_put(src, tag, msg_seq, context, std::span(&seg, 1));
  }

  /// Receiver: the oldest resident message, or nullptr when the ring is
  /// empty. The payload stays valid until release(); consuming in place
  /// keeps the receive path single-copy (slot -> user buffer).
  [[nodiscard]] const FastboxSlot* peek() const {
    FastboxSlot* s = slot(st_->rpos);
    if (aref(s->flag).load(std::memory_order_acquire) != 1) return nullptr;
    return s;
  }

  /// Receiver: hand the slot just peeked back to the sender.
  void release() {
    FastboxSlot* s = slot(st_->rpos);
    aref(s->flag).store(0, std::memory_order_release);
    st_->rpos = (st_->rpos + 1) % st_->nslots;  // Receiver-private word.
  }

 private:
  [[nodiscard]] FastboxSlot* slot(std::uint32_t i) const {
    return reinterpret_cast<FastboxSlot*>(
        reinterpret_cast<std::byte*>(st_ + 1) +
        static_cast<std::size_t>(i) * st_->slot_bytes);
  }

  FastboxState* st_ = nullptr;
};

}  // namespace nemo::shm
