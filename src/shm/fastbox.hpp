// Per-ordered-pair SPSC fastbox, after MPICH Nemesis' fboxes, grown into a
// ring of variable-length records: the one channel a pair's eager messages
// and rendezvous control (RTS/CTS/FIN) travel through, so order on a pair is
// simply ring order.
//
// Every record starts on a cache line with a 24 B header; its payload
// follows inline, so an 8 B message is one line. The header's flag holds
// the record's absolute line number + 1: the receiver polls the flag of the
// line at its read position and accepts only that exact value. A skip record
// marks the unused tail of a lap when the next record would cross the end.
//
// Two rules keep stale bytes from ever reading as a record:
//   - the sender keeps one guard line free between its write position and
//     the receiver's unreleased line;
//   - before it releases a record, the sender zeroes the flag of the line
//     right after it, so payload bytes left there by an earlier lap can
//     never match the flag the receiver expects next.
// The sender caches the receiver's published read position and reloads it
// only when the ring looks full.
//
// Geometry: capacity is `nslots` activation-sized records plus the guard
// line. The World sizes the record stride from the eager activation
// (tune::fastbox_slot_for: lmt_activation rounded up to a cache line plus
// one line, 8,256 B at the formula's 8 KiB), so every auto-routed eager
// message fits one record. Only the state block and the first line are
// zeroed at creation: no other line is read before a put writes it, so
// payload pages stay unfaulted until a pair's traffic reaches them.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>

#include "common/common.hpp"
#include "shm/arena.hpp"

namespace nemo::shm {

/// Ask for `p`'s cache line in writable state ahead of the stores to it
/// (PREFETCHW where the CPU has it).
inline void prefetch_for_write(const void* p) {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("prfchw")) {
    asm volatile("prefetchw %0" : : "m"(*static_cast<const char*>(p)));
    return;
  }
#endif
  __builtin_prefetch(p, 1);
}

/// What a record carries.
enum class RecordType : std::uint16_t {
  kSkip = 0,       ///< Ring-internal: the rest of the lap is unused.
  kEager = 1,      ///< First (or only) record of an eager message.
  kEagerBody = 2,  ///< Continuation of an eager message larger than a record.
  kRts = 3,        ///< Rendezvous request-to-send, payload = LMT wire cookie.
  kCts = 4,        ///< Clear-to-send.
  kFin = 5,        ///< Transfer finished (releases sender-side resources).
};

/// One record's header, at the start of a cache line; the payload follows
/// it inline. The sender writes everything, then releases via `flag`.
struct FastboxRecord {
  std::uint32_t flag;     ///< Absolute line number + 1 once published.
  std::uint32_t src;      ///< Sending rank.
  std::int32_t tag;
  std::uint32_t msg_seq;  ///< Per-(src,dst) message sequence.
  std::uint16_t type;     ///< RecordType.
  std::uint16_t context;
  /// Message bytes from this record on; the record carries
  /// min(len, payload_capacity()) of them, the rest follow in kEagerBody
  /// records.
  std::uint32_t len;
  static constexpr std::size_t kHeaderBytes = 24;

  [[nodiscard]] const std::byte* payload() const {
    return reinterpret_cast<const std::byte*>(this) + kHeaderBytes;
  }
  [[nodiscard]] std::byte* payload() {
    return reinterpret_cast<std::byte*>(this) + kHeaderBytes;
  }
};
static_assert(sizeof(FastboxRecord) == FastboxRecord::kHeaderBytes);
using FastboxSlot = FastboxRecord;  ///< The name the layer probes use.

/// Shared-memory header of one fastbox ring. The sender's words and the
/// receiver's each sit on their own line; the sender reads `rpos` only when
/// its cached copy says the ring is full.
struct FastboxState {
  alignas(kCacheLine) std::uint32_t nlines;  ///< Ring lines, guard included.
  std::uint32_t record_bytes;  ///< Largest record: header + payload capacity.
  alignas(kCacheLine) std::uint64_t wpos;  ///< Sender: next absolute line.
  std::uint64_t rpos_seen;                 ///< Sender: last rpos it read.
  std::uint32_t widx;                      ///< Sender: wpos % nlines.
  alignas(kCacheLine) std::uint64_t rpos;  ///< Receiver: next line, published.
  std::uint32_t ridx;                      ///< Receiver: rpos % nlines.
  // nlines cache lines of records follow.
};

/// Cheap view over one fastbox ring in the arena. Default-constructed views
/// are invalid placeholders (the engine keeps a dense per-peer vector).
class Fastbox {
 public:
  static constexpr std::uint32_t kDefaultSlots = 4;
  static constexpr std::uint32_t kDefaultSlotBytes = 2 * KiB;
  /// Upper bound on the record stride: eager records stop paying off past
  /// 16 KiB.
  static constexpr std::uint32_t kMaxSlotBytes = 16 * KiB;

  /// Bytes one box occupies: the state block, `nslots` records of
  /// `slot_bytes`, and the guard line.
  static constexpr std::size_t footprint(std::uint32_t nslots,
                                         std::uint32_t slot_bytes) {
    return sizeof(FastboxState) + std::size_t{nslots} * slot_bytes +
           kCacheLine;
  }

  /// With `page_align`, the whole box is carved as whole pages so the
  /// caller can mbind it (NUMA placement) without touching neighbours.
  static std::uint64_t create(Arena& arena,
                              std::uint32_t nslots = kDefaultSlots,
                              std::uint32_t slot_bytes = kDefaultSlotBytes,
                              bool page_align = false) {
    NEMO_ASSERT(nslots >= 1);
    NEMO_ASSERT(slot_bytes > FastboxRecord::kHeaderBytes &&
                slot_bytes <= kMaxSlotBytes &&
                slot_bytes % kCacheLine == 0);
    std::size_t total = footprint(nslots, slot_bytes);
    std::uint64_t off = page_align ? arena.alloc_pages(total)
                                   : arena.alloc(total, kCacheLine);
    auto* st = arena.at_as<FastboxState>(off);
    std::memset(st, 0, sizeof(FastboxState));
    st->nlines = static_cast<std::uint32_t>(
        (total - sizeof(FastboxState)) / kCacheLine);
    st->record_bytes = slot_bytes;
    std::memset(st + 1, 0, kCacheLine);
    return off;
  }

  Fastbox() = default;
  Fastbox(Arena& arena, std::uint64_t off)
      : st_(arena.at_as<FastboxState>(off)) {}

  [[nodiscard]] bool valid() const { return st_ != nullptr; }
  [[nodiscard]] std::uint32_t nlines() const { return st_->nlines; }
  /// Largest payload one record carries.
  [[nodiscard]] std::size_t payload_capacity() const {
    return st_->record_bytes - FastboxRecord::kHeaderBytes;
  }
  /// Payload bytes `r` carries.
  [[nodiscard]] std::size_t payload_len(const FastboxRecord& r) const {
    return std::min<std::size_t>(r.len, payload_capacity());
  }

  /// Sender: room for a record carrying `bytes` (at most
  /// payload_capacity()), or nullptr while the ring is full. Fill the
  /// header (flag excepted) and the payload, then publish().
  [[nodiscard]] FastboxRecord* try_claim(std::size_t bytes) {
    NEMO_ASSERT(bytes <= payload_capacity());
    FastboxState& s = *st_;
    std::uint32_t n = lines_for(bytes);
    std::uint32_t tail = s.nlines - s.widx;
    if (n > tail) {
      if (!has_room(tail)) return nullptr;
      FastboxRecord* skip = line(s.widx);
      skip->type = static_cast<std::uint16_t>(RecordType::kSkip);
      commit(tail);
    }
    if (!has_room(n)) return nullptr;
    // The receiver polls the record's first line and may hold the guard
    // line after it, read ahead of its last record: ask for both in
    // writable state now, so the two ownership transfers overlap instead
    // of the guard clear's waiting behind the header's.
    prefetch_for_write(line(s.widx + n == s.nlines ? 0 : s.widx + n));
    prefetch_for_write(line(s.widx));
    return line(s.widx);
  }

  /// Sender: release the record try_claim() returned.
  void publish(const FastboxRecord& r) { commit(lines_for(payload_len(r))); }

  /// Sender: one complete eager message of `len` <= payload_capacity()
  /// bytes, if the ring has room.
  bool try_put(std::uint32_t src, std::int32_t tag, std::uint32_t msg_seq,
               std::uint32_t context, const std::byte* data,
               std::size_t len) {
    FastboxRecord* r = try_claim(len);
    if (r == nullptr) return false;
    r->src = src;
    r->tag = tag;
    r->msg_seq = msg_seq;
    r->type = static_cast<std::uint16_t>(RecordType::kEager);
    r->context = static_cast<std::uint16_t>(context);
    r->len = static_cast<std::uint32_t>(len);
    if (len != 0) std::memcpy(r->payload(), data, len);
    publish(*r);
    return true;
  }

  /// Receiver: the oldest unreleased record, or nullptr when the ring is
  /// empty. Skip records are consumed here. The payload stays valid until
  /// release(); consuming in place keeps the receive path single-copy.
  [[nodiscard]] const FastboxRecord* peek() {
    for (;;) {
      FastboxRecord* r = line(st_->ridx);
      std::uint64_t pos = aref(st_->rpos).load(std::memory_order_relaxed);
      if (aref(r->flag).load(std::memory_order_acquire) != flag_of(pos))
        return nullptr;
      if (r->type != static_cast<std::uint16_t>(RecordType::kSkip)) return r;
      advance_read(st_->nlines - st_->ridx);
    }
  }

  /// Receiver: hand the record just peeked back to the sender.
  void release() { advance_read(lines_for(payload_len(*line(st_->ridx)))); }

 private:
  static std::uint32_t lines_for(std::size_t bytes) {
    return static_cast<std::uint32_t>(
        (FastboxRecord::kHeaderBytes + bytes + kCacheLine - 1) / kCacheLine);
  }
  /// Never 0 (the cleared flag), and distinct for 2^32 - 1 lines in a row.
  static std::uint32_t flag_of(std::uint64_t pos) {
    return static_cast<std::uint32_t>(pos % 0xFFFFFFFFu) + 1;
  }

  [[nodiscard]] FastboxRecord* line(std::uint32_t idx) const {
    return reinterpret_cast<FastboxRecord*>(
        reinterpret_cast<std::byte*>(st_ + 1) +
        std::size_t{idx} * kCacheLine);
  }

  /// Can `n` lines plus the guard line after them be written without
  /// reaching the receiver's unreleased line?
  bool has_room(std::uint32_t n) {
    FastboxState& s = *st_;
    if (s.wpos + n + 1 - s.rpos_seen <= s.nlines) return true;
    s.rpos_seen = aref(s.rpos).load(std::memory_order_acquire);
    return s.wpos + n + 1 - s.rpos_seen <= s.nlines;
  }

  /// Publish the `n`-line record at the write position: clear the next
  /// line's flag first, then release this one.
  void commit(std::uint32_t n) {
    FastboxState& s = *st_;
    FastboxRecord* r = line(s.widx);
    s.widx += n;
    if (s.widx == s.nlines) s.widx = 0;
    aref(line(s.widx)->flag).store(0, std::memory_order_relaxed);
    aref(r->flag).store(flag_of(s.wpos), std::memory_order_release);
    s.wpos += n;
  }

  void advance_read(std::uint32_t n) {
    FastboxState& s = *st_;
    s.ridx += n;
    if (s.ridx == s.nlines) s.ridx = 0;
    aref(s.rpos).store(aref(s.rpos).load(std::memory_order_relaxed) + n,
                       std::memory_order_release);
  }

  FastboxState* st_ = nullptr;
};

}  // namespace nemo::shm
